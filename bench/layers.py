"""Which blockperm entry points the traced run wraps, and the per-layer
metrics it reports.

Each entry names a span, the module or class attribute that gets wrapped,
and optionally a note that updates extra counters after a call.  Several
attributes may share one span name (the elementwise field operations).
"""

import hashlib

import numpy as np

from blockperm import (algebra, blocks, brauertree, gfq, meataxe, modules,
                       permgrp, polys, symchars, vertexweight)

# layers in the order they are reported; the registry checks are a layer too
LAYER_NAMES = ("gfq", "polys", "permgrp", "meataxe", "algebra", "modules",
               "blocks", "vertexweight", "brauertree", "symchars", "checks")


def _shape2(x):
    x = np.asarray(x)
    return (1, x.shape[0]) if x.ndim == 1 else x.shape


def _note_echelon(tr, args, kwargs, result):
    rows, cols = _shape2(args[1])
    rank = len(result[1])
    tr.peak("gfq.echelon.max_elems", rows * cols)
    tr.add("gfq.echelon.gop", 2 * rows * cols * rank)


def _note_matmul(tr, args, kwargs, result):
    field, A, B = args[0], np.asarray(args[1]), np.asarray(args[2])
    m, k = _shape2(A)
    n = 1 if B.ndim == 1 else B.shape[1]
    tr.add("gfq.GF.matmul.gop", 2 * m * k * n)
    if m == 1 or n == 1:
        tr.add("gfq.GF.matmul.matvec_calls")
    if field.e > 1:
        tr.add("gfq.GF.matmul.ext_calls")


def _note_primitive_idempotents(tr, args, kwargs, result):
    tr.peak("algebra.FinDimAlgebra.primitive_idempotents.max_dim",
            args[0].dim)


def _note_ideal_rows(tr, args, kwargs, result):
    vec = np.ascontiguousarray(args[1], dtype=np.int16)
    key = hashlib.sha1(vec.tobytes()).hexdigest()
    seen = tr.counters.setdefault("_ideal_rows_seen", set())
    if key in seen:
        tr.add("_ideal_rows_repeats")
    seen.add(key)


# (span name, owner, attribute, note)
ENTRY_POINTS = [
    ("gfq.echelon", gfq, "echelon", _note_echelon),
    ("gfq.nullspace", gfq, "nullspace", None),
    ("gfq.solve", gfq, "solve", None),
    ("gfq.spin_basis", gfq, "spin_basis", None),
    ("gfq.GF.matmul", gfq.GF, "matmul", _note_matmul),
    ("gfq.GF.parse", gfq.GF, "parse", None),
] + [("gfq.elementwise", gfq.GF, op, None)
     for op in ("add", "sub", "mul", "neg", "inv", "sum")] + [
    ("polys.factor", polys, "factor", None),
    ("permgrp.PermGroup.elements", permgrp.PermGroup, "elements", None),
    ("permgrp.PermGroup.coset_action", permgrp.PermGroup, "coset_action",
     None),
    ("permgrp.PermGroup.double_cosets", permgrp.PermGroup, "double_cosets",
     None),
    ("permgrp.PermGroup.p_subgroups_up_to_conjugacy", permgrp.PermGroup,
     "p_subgroups_up_to_conjugacy", None),
    ("meataxe.split_once", meataxe, "split_once", None),
    ("meataxe.hom_space", meataxe, "hom_space", None),
    ("meataxe.composition_factors", meataxe, "composition_factors", None),
    ("meataxe.vector_annihilator", meataxe, "vector_annihilator", None),
    ("meataxe.iso_of_indecomposables", meataxe, "iso_of_indecomposables",
     None),
    ("algebra.FinDimAlgebra.primitive_idempotents", algebra.FinDimAlgebra,
     "primitive_idempotents", _note_primitive_idempotents),
    ("algebra.FinDimAlgebra.radical_basis", algebra.FinDimAlgebra,
     "radical_basis", None),
    ("algebra.FinDimAlgebra.is_self_injective", algebra.FinDimAlgebra,
     "is_self_injective", None),
    ("modules.decompose", modules, "decompose", None),
    ("modules.endomorphism_algebra", modules, "endomorphism_algebra", None),
    ("modules.hom_modules", modules, "hom_modules", None),
    ("modules.is_isomorphic", modules, "is_isomorphic", None),
    ("modules.is_projective", modules, "is_projective", None),
    ("blocks.GroupAlgebra.__init__", blocks.GroupAlgebra, "__init__", None),
    ("blocks.GroupAlgebra.ideal_rows", blocks.GroupAlgebra, "ideal_rows",
     _note_ideal_rows),
    ("blocks.GroupAlgebra.right_translation_mats", blocks.GroupAlgebra,
     "right_translation_mats", None),
    ("blocks.Block.fixed_point_algebra", blocks.Block, "fixed_point_algebra",
     None),
    ("blocks.Block.source_idempotent", blocks.Block, "source_idempotent",
     None),
    ("blocks.Block.source_corner_rows", blocks.Block, "source_corner_rows",
     None),
    ("blocks.Block.two_sided_coinvariant_dim", blocks.Block,
     "two_sided_coinvariant_dim", None),
    ("blocks.Block.brauer_correspondent", blocks.Block,
     "brauer_correspondent", None),
    ("vertexweight.vertex", vertexweight, "vertex", None),
    ("vertexweight.weights", vertexweight, "weights", None),
    ("vertexweight.block_of_weight", vertexweight, "block_of_weight", None),
    ("brauertree.descriptors_of_algebra", brauertree,
     "descriptors_of_algebra", None),
    ("symchars.perm_character_multiplicities", symchars,
     "perm_character_multiplicities", None),
]

SPAN_NAMES = list(dict.fromkeys(name for name, _o, _a, _n in ENTRY_POINTS))

EXTRA_COUNTS = ("gfq.echelon.max_elems", "gfq.echelon.gop",
                "gfq.GF.matmul.matvec_calls", "gfq.GF.matmul.gop",
                "gfq.GF.matmul.ext_calls",
                "algebra.FinDimAlgebra.primitive_idempotents.max_dim")


def instrument(tracer):
    for name, owner, attr, note in ENTRY_POINTS:
        tracer.wrap(owner, attr, name, note)


def layer_of(span_name):
    return span_name.split(".", 1)[0]


def per_layer_metrics(tracer, check_ids, wall):
    """Per-layer metrics of one traced pass that took wall seconds.

    check_ids lists every check span name the benchmark can report, so the
    metric set is the same on every workload; a layer or check the workload
    never reaches reads 0."""
    summary, top_total = tracer.summary()
    out = {}
    layer_self = dict.fromkeys(LAYER_NAMES, 0.0)
    for name, (calls, _incl, own) in summary.items():
        layer_self[layer_of(name)] += own
    for name in SPAN_NAMES:
        calls, _incl, own = summary.get(name, (0, 0.0, 0.0))
        out[name + ".calls"] = (calls, "count")
        out[name + ".self_s"] = (own, "s")
    units = {"gfq.echelon.max_elems": "count", "gfq.echelon.gop": "gop",
             "gfq.GF.matmul.gop": "gop"}
    for key in EXTRA_COUNTS:
        value = tracer.counters.get(key, 0)
        unit = units.get(key, "count")
        out[key] = (value / 1e9 if unit == "gop" else value, unit)
    splits = summary.get("meataxe.split_once", (0,))[0]
    tries = tracer.count_under("meataxe.vector_annihilator",
                               "meataxe.split_once")
    out["meataxe.split_once.tries"] = (tries / splits if splits else 0.0,
                                       "ratio")
    rows = summary.get("blocks.GroupAlgebra.ideal_rows", (0,))[0]
    repeats = tracer.counters.get("_ideal_rows_repeats", 0)
    out["blocks.GroupAlgebra.ideal_rows.repeat_frac"] = (
        repeats / rows if rows else 0.0, "ratio")
    for layer in LAYER_NAMES:
        out["layer.%s.self_s" % layer] = (layer_self[layer], "s")
    for cid in check_ids:
        out["checks.%s.s" % cid] = (summary.get("checks." + cid,
                                                (0, 0.0))[1], "s")
    out["trace.wall_s"] = (wall, "s")
    out["trace.outside_s"] = (wall - top_total, "s")
    return out
