#!/usr/bin/env python3
"""Write the golden replay corpus (corpus.txt) from a dse_server build.

    python3 tests/serve/golden/make_corpus.py build/examples/dse_server

The frames are listed below; each one is piped through
`dse_server --stdio --jobs 1`, and its reply is stored next to it.
GoldenReplay.* (tests/serve/test_golden_replay.cc) replays the
corpus and compares every reply, so a change to any reply byte fails
it.  A change that means to alter replies regenerates the corpus in
the same commit and names the replies that changed.

Corpus format, three lines per record:

    == <label>
    <frame bytes>
    <reply bytes>  |  fnv1a64 <length> <16 hex digits>

A reply longer than DIGEST_OVER bytes is stored as its length and
64-bit FNV-1a digest.  Frames are single lines; '#' lines before a
record are comments.
"""

import random
import subprocess
import sys
from pathlib import Path

DIGEST_OVER = 4096

# --- building blocks ------------------------------------------------

BOARD = ('{"name": "TX2 \\"dev\\"", "class": "improved", '
         '"weight_g": 85.5, "power_w": 7.25}')
POINT = ('{"wheelbase_mm": 330.5, "cells": 4, "capacity_mah": 2200.25, '
         '"twr": 2.5, "prop_diameter_in": 8.5, '
         '"esc_class": "short_flight", "board": ' + BOARD + ', '
         '"sensor_weight_g": 12.5, "sensor_power_w": 1.25, '
         '"payload_g": 50, "activity": "maneuvering"}')
SPEC = ('{"airframes": [{"wheelbase_mm": 250, "prop_diameter_in": 5}, '
        '{"wheelbase_mm": 450, "prop_diameter_in": 0}], '
        '"boards": [{"name": "a", "class": "basic", "weight_g": 85.5, '
        '"power_w": 7.25}, {"name": "b", "class": "improved", '
        '"weight_g": 85.5, "power_w": 7.25}], '
        '"activities": ["maneuvering", "hovering"], "cells": [3, 4, 6], '
        '"capacity_lo_mah": 1500, "capacity_hi_mah": 4500, '
        '"capacity_step_mah": 750, "twr": 2.25, '
        '"esc_class": "short_flight", "sensor_weight_g": 30, '
        '"sensor_power_w": 2.5, "payload_g": 100}')
AXIS_BASE = ('"airframes": [{"wheelbase_mm": 330}], "boards": '
             '[{"name": "a", "weight_g": 20, "power_w": 3}], '
             '"activities": ["hovering"], ')
SMALL_SPEC = ('{' + AXIS_BASE + '"cells": [3, 4], "capacity_lo_mah": '
              '2000, "capacity_hi_mah": 3000, "capacity_step_mah": 500}')
MISSION = ('{"name": "survey", "target_rate_hz": 20, '
           '"per_frame_ops": [1500000, 2500000, 350000, 40000000, '
           '500000000], "wheelbases_mm": [350, 550], "cells": [4, 6], '
           '"capacity_lo_mah": 2500, "capacity_hi_mah": 5000, '
           '"capacity_step_mah": 1250, "activity": "maneuvering", '
           '"payload_g": 75}')
SMALL_MISSION = ('{"name": "t", "target_rate_hz": 15, '
                 '"wheelbases_mm": [450], "cells": [3], '
                 '"capacity_lo_mah": 2000, "capacity_hi_mah": 3000, '
                 '"capacity_step_mah": 500}')
AXES = ('[{"axis": "wheelbase_mm", "lo": 300, "step": 50, "count": 4}, '
        '{"axis": "cells", "values": [3, 5]}, '
        '{"axis": "capacity_mah", "lo": 1000, "step": 500, "count": 5}, '
        '{"axis": "twr", "lo": 1.5, "step": 0.25, "count": 3}, '
        '{"axis": "board", "boards": [{"name": "c", "class": "basic", '
        '"weight_g": 85.5, "power_w": 7.25}]}, '
        '{"axis": "activity", "values": ["maneuvering"]}, '
        '{"axis": "payload_g", "lo": 10, "step": 20, "count": 2}]')
SMALL_AXES = ('[{"axis": "capacity_mah", "lo": 1000, "step": 500, '
              '"count": 5}, {"axis": "cells", "values": [3, 4]}]')
GATES = ('[{"metric": "total_weight_g", "op": "at_most", '
         '"threshold": 1500, "min_probability": 0.75}, '
         '{"metric": "flight_time_min", "op": "at_least", '
         '"threshold": 12, "min_probability": 0.5}]')

# The documents of Json.RejectsMalformedDocuments (an empty one is
# not a line, so it stands as whitespace here).
MALFORMED_DOCS = [
    " ", "{", "[1, 2", '{"a": }', '{"a" 1}', "tru", "01", "1.", "+1",
    "NaN", "Infinity", "-Infinity", '"unterminated', '"bad \\x escape"',
    '"\\ud800"', '{"a": 1} trailing', '{"a": 1,}', "[1,]", "'single'",
    '"raw\tcontrol"',
]


def design(i, point="{}", extra=""):
    return ('{"id": %d, "kind": "design", "point": %s%s}'
            % (i, point, extra))


def frames():
    out = []

    def add(label, frame):
        assert frame and "\n" not in frame and frame[-1] != "\r", label
        out.append((label, frame))

    # --- every query kind, valid ---------------------------------
    add("design canonical",
        '{"id": 101, "kind": "design", "class": "batch", "point": '
        + POINT + '}')
    add("design defaults", design(1))
    for cells in range(1, 7):
        add("design cells %d" % cells,
            design(2, '{"cells": %d, "capacity_mah": 3000}' % cells))
    for wb, cap, twr in [(200, 1000, 1.5), (450, 8000, 2), (800, 20000, 3),
                         (330, 100000, 2), (250, 2200, 6), (600, 50, 2),
                         (1000, 30000, 1.2)]:
        add("design wb %d cap %d twr %g" % (wb, cap, twr),
            design(3, '{"wheelbase_mm": %d, "capacity_mah": %d, '
                      '"twr": %g}' % (wb, cap, twr)))
    for esc in ["short_flight", "long_flight"]:
        for act in ["hovering", "maneuvering"]:
            add("design %s %s" % (esc, act),
                design(4, '{"esc_class": "%s", "activity": "%s"}'
                       % (esc, act)))
    add("design heavy payload", design(5, '{"payload_g": 5000}'))
    add("design heavy board",
        design(5, '{"board": {"class": "basic", "weight_g": 900, '
                  '"power_w": 90}}'))
    add("design 1 cell high draw",
        design(5, '{"cells": 1, "capacity_mah": 200, "twr": 4, '
                  '"payload_g": 400}'))
    add("design escaped board name",
        design(6, '{"board": {"name": "caf\\u00e9 \\ud83d\\ude00 '
                  '\\/\\b\\f\\n\\r\\t\\"\\\\"}}'))
    add("design raw utf-8 name",
        design(6, '{"board": {"name": "caf\u00e9 \u2708"}}'))
    add("sweep canonical",
        '{"id": 102, "kind": "sweep", "class": "batch", "spec": '
        + SPEC + '}')
    add("sweep small", '{"id": 7, "kind": "sweep", "spec": '
        + SMALL_SPEC + '}')
    add("sweep one point",
        '{"id": 7, "kind": "sweep", "spec": {' + AXIS_BASE + '"cells": [4], '
        '"capacity_lo_mah": 2000, "capacity_hi_mah": 2000}}')
    add("sweep with infeasible rows",
        '{"id": 7, "kind": "sweep", "spec": {' + AXIS_BASE
        + '"cells": [1, 2, 6], '
        '"capacity_lo_mah": 100, "capacity_hi_mah": 30100, '
        '"capacity_step_mah": 10000, "payload_g": 3000}}')
    add("pareto canonical",
        '{"id": 103, "kind": "pareto", "class": "batch", "spec": '
        + SPEC.replace('"cells": [3, 4, 6]', '"cells": [2]') + '}')
    add("pareto small", '{"id": 8, "kind": "pareto", "spec": '
        + SMALL_SPEC + '}')
    add("pareto full spec", '{"id": 8, "kind": "pareto", "spec": '
        + SPEC + '}')
    add("codesign canonical",
        '{"id": 104, "kind": "codesign", "class": "batch", "mission": '
        + MISSION + '}')
    add("codesign small", '{"id": 9, "kind": "codesign", "mission": '
        + SMALL_MISSION + '}')
    add("codesign hovering",
        '{"id": 9, "kind": "codesign", "mission": '
        + SMALL_MISSION[:-1] + ', "activity": "hovering"}}')
    add("explore canonical",
        '{"id": 105, "kind": "explore", "class": "batch", "space": '
        '{"base": ' + POINT + ', "axes": ' + AXES + '}, "options": '
        '{"sampler": "lhs", "seed": 99, "initial_samples": 32, '
        '"round_evaluations": 16, "max_evaluations": 200, '
        '"max_rounds": 9, "neighbor_radius": 2, '
        '"bisect_boundary": false}}')
    for sampler in ["grid", "uniform", "lhs", "sobol"]:
        for bisect in ["true", "false"]:
            add("explore %s bisect %s" % (sampler, bisect),
                '{"id": 10, "kind": "explore", "space": {"axes": '
                + SMALL_AXES + '}, "options": {"sampler": "%s", '
                '"seed": 3, "initial_samples": 6, "max_evaluations": 12, '
                '"bisect_boundary": %s}}' % (sampler, bisect))
    add("explore default options",
        '{"id": 10, "kind": "explore", "space": {"axes": '
        '[{"axis": "cells", "values": [3, 4]}]}}')
    add("explore empty axes",
        '{"id": 10, "kind": "explore", "space": {"axes": []}}')
    add("risk canonical",
        '{"id": 106, "kind": "risk", "class": "batch", "point": ' + POINT
        + ', "options": {"seed": 7, "samples": 128, '
        '"scatter_replicates": 32}, "gates": ' + GATES + ', '
        '"quantiles": [0.10000000000000001, 0.5]}')
    for samples in [1, 7, 4096]:
        for reps in [2, 64]:
            add("risk samples %d replicates %d" % (samples, reps),
                '{"id": 11, "kind": "risk", "point": {}, "options": '
                '{"seed": 5, "samples": %d, "scatter_replicates": %d}, '
                '"quantiles": [0, 0.25, 0.5, 1]}' % (samples, reps))
    for cells in range(1, 7):
        add("risk cells %d" % cells,
            '{"id": 12, "kind": "risk", "point": {"cells": %d}, '
            '"options": {"samples": 64}, "gates": %s}' % (cells, GATES))
    add("risk non-positive fixed weight",
        '{"id":1,"kind":"risk","point":{"wheelbase_mm":201,"cells":1,'
        '"capacity_mah":1,"board":{"weight_g":0,"power_w":0}},'
        '"options":{"seed":1,"samples":256,"scatter_replicates":2}}')
    add("risk nothing feasible quantiles",
        '{"id": 13, "kind": "risk", "point": {"cells": 1, '
        '"capacity_mah": 100000}, "options": {"samples": 16}, '
        '"quantiles": [0.5]}')

    # --- the two error codes the reader produces ------------------
    # MalformedFrameBattery, frame by frame.
    valid = ('{"id": 1, "kind": "design", "point": {"wheelbase_mm": 330, '
             '"cells": 4, "capacity_mah": 2200}}')
    battery = [
        ("whitespace frame", " "),
        ("tab frame", "\t\t"),
        ("truncated JSON", valid[:len(valid) // 2]),
        ("not an object", "[1, 2, 3]"),
        ("bare garbage", "hello there"),
        ("NaN field", design(1, '{"twr": NaN}')),
        ("Infinity field", design(1, '{"capacity_mah": Infinity}')),
        ("missing id", '{"kind": "design", "point": {}}'),
        ("fractional id", '{"id": 1.5, "kind": "design", "point": {}}'),
        ("negative id", '{"id": -4, "kind": "design", "point": {}}'),
        ("unknown query kind",
         '{"id": 2, "kind": "teleport", "point": {}}'),
        ("unknown class",
         '{"id": 2, "kind": "design", "class": "vip", "point": {}}'),
        ("wrong type for point", design(2, "7")),
        ("wrong type for field", design(2, '{"cells": "four"}')),
        ("unknown esc class", design(2, '{"esc_class": "warp"}')),
        ("spec for sweep missing", '{"id": 2, "kind": "sweep"}'),
        ("cells entry out of int range",
         '{"id": 2, "kind": "sweep", "spec": {"cells": [1e300]}}'),
        ("cells out of int range", design(2, '{"cells": 1e300}')),
        ("null for a field", design(2, '{"twr": null}')),
        ("null for an enum",
         '{"id": 2, "kind": "design", "class": null, "point": {}}'),
        ("null for an object", design(2, "null")),
        ("null id", '{"id": null, "kind": "design", "point": {}}'),
        ("empty query kind", '{"id": 2, "kind": "", "point": {}}'),
        ("empty axis name",
         '{"id": 2, "kind": "explore", "space": {"axes": '
         '[{"axis": "", "values": [3]}]}}'),
        ("empty spelling in an enum list",
         '{"id": 2, "kind": "sweep", "spec": {"activities": [""]}}'),
        ("seed above 2^53",
         '{"id": 2, "kind": "explore", "space": {"axes": []}, '
         '"options": {"seed": 1152921504606846976}}'),
    ]
    for label, frame in battery:
        add("battery: " + label, frame)
    # MalformedExploreAndRiskFrames.
    for label, frame in [
            ("missing space", '{"id": 1, "kind": "explore"}'),
            ("axes not an array",
             '{"id": 1, "kind": "explore", "space": {"axes": "all"}}'),
            ("unknown axis kind",
             '{"id": 1, "kind": "explore", "space": '
             '{"axes": [{"axis": "warp"}]}}'),
            ("unknown sampler",
             '{"id": 1, "kind": "explore", "space": {"axes": '
             '[{"axis": "cells", "values": [3]}]}, '
             '"options": {"sampler": "psychic"}}'),
            ("missing point", '{"id": 1, "kind": "risk"}'),
            ("quantile not a number",
             '{"id": 1, "kind": "risk", "point": {}, '
             '"quantiles": ["median"]}'),
            ("unknown gate metric",
             '{"id": 1, "kind": "risk", "point": {}, '
             '"gates": [{"metric": "karma"}]}')]:
        add("explore/risk battery: " + label, frame)
    # Json.RejectsMalformedDocuments, as a whole frame, as a known
    # member's value, and as an unknown member's value.
    for n, doc in enumerate(MALFORMED_DOCS):
        add("malformed doc %d as frame" % n, doc)
        add("malformed doc %d as twr" % n, design(1, '{"twr": %s}' % doc))
        add("malformed doc %d in unknown member" % n,
            design(1, "{}", ', "extra": ' + doc))
    # Every other reason the grammar gives.
    for label, frame in [
            ("not an object: string", '"design"'),
            ("not an object: number", "42"),
            ("not an object: null", "null"),
            ("not an object: true", "true"),
            ("expected object key", '{"id": 1, 2: 3}'),
            ("expected ':'", '{"id" 1}'),
            ("expected ',' or '}'", '{"id": 1 "kind": "design"}'),
            ("unterminated object", '{"id": 1'),
            ("unterminated object after comma", '{"id": 1,'),
            ("expected ',' or ']'", design(1, "{}", ', "x": [1 2]')),
            ("unterminated array", design(1, "{}", ', "x": [1')[:-1]),
            ("unterminated string", '{"id": 1, "kind": "des'),
            ("raw control character", '{"id": 1, "kind": "de\x01sign"}'),
            ("truncated escape", '{"id": 1, "kind": "design\\'),
            ("unknown escape", '{"id": 1, "kind": "d\\esign"}'),
            ("truncated \\u escape", '{"id": 1, "kind": "\\u00'),
            ("bad \\u escape digit", '{"id": 1, "kind": "\\u00g1"}'),
            ("lone high surrogate", '{"id": 1, "kind": "\\ud83dx"}'),
            ("high surrogate then other escape",
             '{"id": 1, "kind": "\\ud83d\\n"}'),
            ("bad low surrogate", '{"id": 1, "kind": "\\ud83d\\u0041"}'),
            ("lone low surrogate", '{"id": 1, "kind": "\\ude00"}'),
            ("malformed number: minus only", '{"id": -}'),
            ("malformed number: leading zero", '{"id": 007}'),
            ("malformed number fraction", '{"id": 1.e5}'),
            ("malformed number exponent", '{"id": 1e+}'),
            ("number out of range", design(1, '{"twr": 1e400}')),
            ("negative number out of range",
             design(1, "{}", ', "x": -1e400')),
            ("unexpected token", '{"id": nul}'),
            ("unexpected token: True", '{"id": True}'),
            ("unexpected end after key", '{"id":'),
            ("trailing garbage", design(1) + " x"),
            ("two documents", design(1) + design(2)),
            ("key with raw control", '{"i\x1fd": 1}'),
            ("grammar error after schema error",
             '{"id": "one", "kind": "design", "point": {}, "x": [1,]}'),
            ("grammar error after missing field",
             '{"kind": "design", "point": {} , "x": tru}'),
            ("grammar error in duplicate key's second value",
             '{"id": 1, "id": [1,], "kind": "design", "point": {}}'),
            ("grammar error in unknown nested member",
             design(1, '{"warp": {"a": [1, {"b": 01}]}}')),
            ("NUL escape in kind", '{"id": 1, "kind": "\\u0000"}'),
            ("id of 800 digits",
             '{"id": %s, "kind": "design", "point": {}}' % ("9" * 800)),
    ]:
        add("grammar: " + label, frame)

    # --- schema errors, in field-list order -----------------------
    for label, frame in [
            ("id a string", '{"id": "1", "kind": "design", "point": {}}'),
            ("id above 2^53",
             '{"id": 9007199254740994, "kind": "design", "point": {}}'),

            ("kind missing", '{"id": 3, "point": {}}'),
            ("kind a number", '{"id": 3, "kind": 1, "point": {}}'),
            ("kind escaped unknown", '{"id": 3, "kind": "d\\u00e9sign"}'),
            ("class a bool",
             '{"id": 3, "kind": "design", "class": true, "point": {}}'),
            ("point missing", '{"id": 3, "kind": "design"}'),
            ("point an array", design(3, "[]")),
            ("first of two violations wins",
             design(3, '{"cells": 1.5, "twr": "x"}')),
            ("id violation before kind violation",
             '{"kind": "nope", "id": -1}'),
            ("wheelbase a string", design(3, '{"wheelbase_mm": "330"}')),
            ("cells fractional", design(3, '{"cells": 3.5}')),
            ("cells above 1e9", design(3, '{"cells": 1000000001}')),
            ("board not an object", design(3, '{"board": "tx2"}')),
            ("board name a number", design(3, '{"board": {"name": 7}}')),
            ("board class unknown",
             design(3, '{"board": {"class": "quantum"}}')),
            ("activity unknown", design(3, '{"activity": "napping"}')),
            ("spec not an object", '{"id": 3, "kind": "sweep", "spec": []}'),
            ("airframes not an array",
             '{"id": 3, "kind": "sweep", "spec": {"airframes": {}}}'),
            ("airframe entry not an object",
             '{"id": 3, "kind": "sweep", "spec": {"airframes": [1]}}'),
            ("boards entry wrong",
             '{"id": 3, "kind": "pareto", "spec": {"boards": [{"power_w": '
             '"hi"}]}}'),
            ("activities entry not a string",
             '{"id": 3, "kind": "sweep", "spec": {"activities": [1]}}'),
            ("activities entry unknown",
             '{"id": 3, "kind": "sweep", "spec": {"activities": ["x"]}}'),
            ("cells entry fractional",
             '{"id": 3, "kind": "sweep", "spec": {"cells": [3, 4.5]}}'),
            ("mission missing", '{"id": 3, "kind": "codesign"}'),
            ("per_frame_ops four entries",
             '{"id": 3, "kind": "codesign", "mission": '
             '{"per_frame_ops": [1, 2, 3, 4]}}'),
            ("per_frame_ops six entries",
             '{"id": 3, "kind": "codesign", "mission": '
             '{"per_frame_ops": [1, 2, 3, 4, 5, 6]}}'),
            ("per_frame_ops not an array",
             '{"id": 3, "kind": "codesign", "mission": '
             '{"per_frame_ops": 5}}'),
            ("per_frame_ops entry a string",
             '{"id": 3, "kind": "codesign", "mission": '
             '{"per_frame_ops": [1, 2, "3", 4, 5]}}'),
            ("mission name an object",
             '{"id": 3, "kind": "codesign", "mission": {"name": {}}}'),
            ("space axes missing",
             '{"id": 3, "kind": "explore", "space": {}}'),
            ("axis missing",
             '{"id": 3, "kind": "explore", "space": {"axes": [{}]}}'),
            ("cells axis values missing",
             '{"id": 3, "kind": "explore", "space": {"axes": '
             '[{"axis": "cells"}]}}'),
            ("board axis boards missing",
             '{"id": 3, "kind": "explore", "space": {"axes": '
             '[{"axis": "board", "values": []}]}}'),
            ("activity axis values wrong",
             '{"id": 3, "kind": "explore", "space": {"axes": '
             '[{"axis": "activity", "values": ["hovering", 2]}]}}'),
            ("axis count negative",
             '{"id": 3, "kind": "explore", "space": {"axes": '
             '[{"axis": "twr", "count": -1}]}}'),
            ("options not an object",
             '{"id": 3, "kind": "explore", "space": {"axes": []}, '
             '"options": 1}'),
            ("bisect_boundary a number",
             '{"id": 3, "kind": "explore", "space": {"axes": []}, '
             '"options": {"bisect_boundary": 1}}'),
            ("max_rounds fractional",
             '{"id": 3, "kind": "explore", "space": {"axes": []}, '
             '"options": {"max_rounds": 2.5}}'),
            ("risk samples a string",
             '{"id": 3, "kind": "risk", "point": {}, "options": '
             '{"samples": "many"}}'),
            ("risk replicates fractional",
             '{"id": 3, "kind": "risk", "point": {}, "options": '
             '{"scatter_replicates": 0.5}}'),
            ("gate op unknown",
             '{"id": 3, "kind": "risk", "point": {}, "gates": '
             '[{"op": "about"}]}'),
            ("gates not an array",
             '{"id": 3, "kind": "risk", "point": {}, "gates": {}}'),
            ("gate threshold null",
             '{"id": 3, "kind": "risk", "point": {}, "gates": '
             '[{"threshold": null}]}'),
    ]:
        add("schema: " + label, frame)

    # --- planner rejections after a clean read --------------------
    for label, frame in [
            ("cells 0", design(4, '{"cells": 0}')),
            ("negative capacity", design(4, '{"capacity_mah": -1}')),
            ("huge grid",
             '{"id": 4, "kind": "sweep", "spec": {' + AXIS_BASE
             + '"capacity_lo_mah": 1, '
             '"capacity_hi_mah": 1e300, "capacity_step_mah": 1}}'),
            ("risk samples over limit",
             '{"id": 4, "kind": "risk", "point": {}, "options": '
             '{"samples": 65537}}'),
            ("explore evaluations over limit",
             '{"id": 4, "kind": "explore", "space": {"axes": '
             '[{"axis": "cells", "values": [3]}]}, '
             '"options": {"max_evaluations": 100001}}'),
    ]:
        add("planner: " + label, frame)

    # --- lenient-read rules ---------------------------------------
    for label, frame in [
            ("kind after payload", '{"point": {"cells": 3}, "id": 20, '
             '"kind": "design"}'),
            ("kind after spec", '{"spec": ' + SMALL_SPEC + ', '
             '"kind": "sweep", "id": 21}'),
            ("kind last in explore", '{"options": {"sampler": "grid", '
             '"max_evaluations": 6}, "space": {"axes": ' + SMALL_AXES
             + '}, "id": 22, "kind": "explore"}'),
            ("kind last in risk", '{"quantiles": [0.5], "options": '
             '{"samples": 16}, "point": {"cells": 3}, "id": 23, '
             '"kind": "risk"}'),
            ("permuted point members",
             design(24, '{"activity": "hovering", "payload_g": 20, '
                        '"board": {"power_w": 4, "name": "z", '
                        '"weight_g": 30, "class": "basic"}, "cells": 3, '
                        '"wheelbase_mm": 400}')),
            ("permuted codesign", '{"mission": {"payload_g": 10, '
             '"capacity_step_mah": 500, "capacity_hi_mah": 3000, '
             '"cells": [3], "capacity_lo_mah": 2000, '
             '"wheelbases_mm": [450], "target_rate_hz": 15, "name": "p"}, '
             '"class": "batch", "kind": "codesign", "id": 25}'),
            ("permuted axis members",
             '{"id": 26, "kind": "explore", "space": {"axes": '
             '[{"count": 3, "step": 0.5, "lo": 2, "axis": "twr"}, '
             '{"values": [3, 4], "axis": "cells"}]}, "options": '
             '{"max_evaluations": 6, "initial_samples": 6}}'),
            ("duplicate id", '{"id": 27, "id": 28, "kind": "design", '
             '"point": {}}'),
            ("duplicate kind", '{"id": 29, "kind": "design", '
             '"kind": "sweep", "point": {}}'),
            ("duplicate nested", design(30, '{"cells": 5, "cells": 6, '
                                            '"board": {"power_w": 1, '
                                            '"power_w": 2}}')),
            ("duplicate: first invalid wins",
             design(31, '{"cells": "x", "cells": 4}')),
            ("duplicate: second invalid ignored",
             design(32, '{"cells": 4, "cells": "x"}')),
            ("duplicate point objects",
             design(33, '{"cells": 3}', ', "point": {"cells": "x"}')),
            ("duplicate empty enum then value",
             '{"id": 34, "kind": "design", "class": "", "class": "batch", '
             '"point": {}}'),
            ("escaped key id", '{"\\u0069d": 35, "kind": "design", '
             '"point": {}}'),
            ("escaped key kind and point",
             '{"id": 36, "\\u006bind": "design", "po\\u0069nt": '
             '{"\\u0063ells": 3}}'),
            ("escaped key with solidus", '{"id": 37, "kind": "design", '
             '"point": {"wheelbase\\u005fmm": 400, "cells\\/": 9}}'),
            ("escaped value", '{"id": 38, "kind": "d\\u0065sign", '
             '"class": "b\\u0061tch", "point": {}}'),
            ("escaped key duplicates plain",
             '{"id": 39, "\\u0069d": 40, "kind": "design", "point": {}}'),
            ("plain key duplicates escaped",
             '{"\\u0069d": 41, "id": 42, "kind": "design", "point": {}}'),
            ("unknown scalars",
             design(43, '{"x": 1, "y": "s", "z": null, "w": true}',
                    ', "extra": false, "more": -0.5e-3')),
            ("unknown nested containers",
             design(44, "{}", ', "extra": {"a": [1, {"b": [[], {}]}], '
                              '"c": {"d": {"e": "\\u00e9\\"\\\\"}}}')),
            ("unknown large array",
             design(45, "{}", ', "blob": [' + ", ".join(
                 str(i * 7) for i in range(600)) + ']')),
            ("unknown large object",
             design(46, "{}", ', "blob": {' + ", ".join(
                 '"k%d": [%d, "v"]' % (i, i) for i in range(300)) + '}')),
            ("unknown member before id",
             '{"note": ["a", {"b": null}], "id": 47, "kind": "design", '
             '"point": {}}'),
            ("unknown key with escapes",
             '{"id": 48, "k\\u00e9y\\n": [1], "kind": "design", '
             '"point": {}}'),
            ("payload of another kind ignored",
             '{"id": 49, "kind": "design", "point": {}, "spec": '
             '{"cells": "bad"}, "mission": 7}'),
            ("empty enums keep defaults",
             '{"id": 50, "kind": "design", "class": "", "point": '
             '{"esc_class": "", "activity": "", "board": {"class": ""}}}'),
            ("empty sampler keeps default",
             '{"id": 51, "kind": "explore", "space": {"axes": '
             '[{"axis": "cells", "values": [3]}]}, "options": '
             '{"sampler": "", "max_evaluations": 4}}'),
            ("empty gate enums keep defaults",
             '{"id": 52, "kind": "risk", "point": {}, "options": '
             '{"samples": 8}, "gates": [{"metric": "", "op": ""}]}'),
            ("whitespace everywhere",
             ' \t{ \r"id"\t:\r53 , "kind" :"design",\t"point":{ '
             '"cells" : 3 ,"twr":2 } }\t '),
            ("compact", '{"id":54,"kind":"pareto","spec":{"airframes":[{}],'
             '"boards":[{}],"activities":["maneuvering"],"cells":[3,4],'
             '"capacity_lo_mah":2000,"capacity_hi_mah":4000,'
             '"capacity_step_mah":1000}}'),
            ("empty key", '{"": 1, "id": 55, "kind": "design", '
             '"point": {"": {}}}'),
    ]:
        add("lenient: " + label, frame)

    # --- numbers --------------------------------------------------
    rng = random.Random(800)
    digits = "7" + "".join(str(rng.randint(0, 9)) for _ in range(799))
    for label, num in [
            ("1e-400", "1e-400"), ("-1e-400", "-1e-400"),
            ("2.4e-324", "2.4e-324"),
            ("denorm min", "4.9406564584124654e-324"),
            ("1e400", "1e400"), ("max double", "1.7976931348623157e308"),
            ("above max double", "1.7976931348623159e308"),
            ("800-digit integer", digits),
            ("800-digit fraction", "0." + digits),
            ("800-digit scaled", digits + "e-797"),
            ("800-digit scaled down", "-" + digits + "e-1120"),
            ("negative zero", "-0"), ("exponent caps", "2.2E+3"),
            ("long exponent", "1e0000000000000000003"),
    ]:
        add("number %s as capacity" % label,
            design(60, '{"capacity_mah": %s}' % num))
        add("number %s unknown" % label, design(61, "{}", ', "n": ' + num))
    for label, num in [
            ("zero", "0"), ("negative zero", "-0"),
            ("2^53", "9007199254740992"),
            ("2^53+1", "9007199254740993"), ("1e3", "1e3"),
            ("1.0", "1.0"), ("1e-400", "1e-400")]:
        add("number %s as id" % label,
            '{"id": %s, "kind": "design", "point": {}}' % num)
    for label, num in [("1e9", "1e9"), ("-1e9", "-1e9"),
                       ("1e9+1", "1000000001"), ("2.0", "2.0")]:
        add("number %s as cells" % label, design(62, '{"cells": %s}' % num))

    # --- nesting depth inside an unknown member -------------------
    for depth in [94, 95, 96, 97]:
        add("%d-deep arrays" % depth,
            design(70, "{}", ', "deep": ' + "[" * depth + "]" * depth))
        add("%d-deep arrays around a number" % depth,
            design(71, "{}", ', "deep": ' + "[" * depth + "1"
                   + "]" * depth))
        add("%d-deep objects" % depth,
            design(72, "{}", ', "deep": ' + '{"a": ' * (depth - 1) + "{}"
                   + "}" * (depth - 1)))
    add("200-deep arrays", design(73, "{}", ', "deep": ' + "[" * 200
                                  + "]" * 200))
    add("200 opening brackets", design(74, "{}", ', "deep": ' + "[" * 200))
    add("deep known member", design(75, '{"board": ' + "[" * 100 + "]" * 100
                                    + '}'))
    return out


def fnv1a64(data):
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: make_corpus.py PATH/TO/dse_server")
    cases = frames()
    stdin = b"".join(f.encode() + b"\n" for _, f in cases)
    run = subprocess.run([sys.argv[1], "--stdio", "--jobs", "1"],
                         input=stdin, stdout=subprocess.PIPE, check=True)
    replies = run.stdout.split(b"\n")
    assert replies[-1] == b"" and len(replies) == len(cases) + 1
    lines = [b"# Golden replay corpus: written by make_corpus.py, "
             b"replayed by GoldenReplay.*."]
    for (label, frame), reply in zip(cases, replies):
        lines.append(b"== " + label.encode())
        lines.append(frame.encode())
        if len(reply) > DIGEST_OVER:
            lines.append(b"fnv1a64 %d %016x" % (len(reply), fnv1a64(reply)))
        else:
            lines.append(reply)
    out = Path(__file__).with_name("corpus.txt")
    out.write_bytes(b"\n".join(lines) + b"\n")
    print("%s: %d records" % (out, len(cases)))


if __name__ == "__main__":
    main()
