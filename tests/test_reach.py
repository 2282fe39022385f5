"""Reach census: which functions of `src/plural` the commands never call.

Tiny `plural run` cases under the gac and mf backends (with an advertiser,
a standing purchase and devotion adaptation), `plural score`, `plural
compare --seeds 1` and two failing invocations run under cProfile in a
fresh interpreter, imports included. Every function the package defines
that none of them calls must be pinned here with its reason, so a helper
that nothing in the program reaches cannot be added without one.
"""

import copy
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from plural import sim
from plural.config import ScenarioConfig

from test_config_cli import FULL_SCENARIO

SRC = Path(__file__).resolve().parents[1] / "src"

AUDIT = "an invariant check that tests and perfbench's audits run on a finished run"
TESTS_BUILD = "tests build state with it"
TESTS_READ = "tests read state with it"
TRACER = "perfbench's tracer patches or reads it by name"

# Each function the commands never call, by module and qualified name, with
# its reason. A property's getter and setter are listed one each.
PINNED = [
    ("config.ScenarioConfig.loads", "tests round-trip scenarios through it"),
    ("config.ScenarioConfig.to_dict", "tests round-trip scenarios through it"),
    ("config.ScenarioConfig.to_json", "tests round-trip scenarios through it"),
    ("config._dump", "ScenarioConfig.to_dict's walk"),
    ("detect.fuzzy_c_means", TRACER),
    ("econ.Ledger.audit", AUDIT),
    ("econ.Ledger.csv_lines", "Ledger.to_csv's lines"),
    ("econ.Ledger.entries", TESTS_READ),
    ("econ.Ledger.entries", TESTS_BUILD),
    ("econ.Ledger.to_csv", TESTS_READ),
    ("econ.LedgerRows.entries", "Ledger.entries' rows"),
    ("fabric.SocialFabric.audit", AUDIT),
    ("fabric.SocialFabric.member_communities", TRACER),
    ("rank.Feeds.of", TESTS_BUILD),
    ("rank.build_feed", TRACER),
    ("rank.exposure_weights", TRACER),
    ("rank.feed_to_records", TRACER),
    ("score.ReactionMatrix.get", TESTS_READ),
    ("score.ReactionMatrix.record_exposure", TESTS_BUILD),
    ("score.ReactionMatrix.record_reaction", TESTS_BUILD),
    ("score.ReactionMatrix.to_csv", TESTS_READ),
    ("score.ScoreSet.cards", TRACER),
    ("score.ScoreSet.community_cards", f"{TRACER}; {TESTS_READ}"),
    ("score.ScoreSet.get", TESTS_READ),
    ("score.ScoreSet.of", TESTS_BUILD),
    ("score.ScoreSet.scope_cards", TESTS_READ),
    ("score.ScoreSet.to_csv", TESTS_READ),
    ("score._Cards.__getitem__", "ScoreSet.cards' mapping"),
    ("score._Cards.__init__", "ScoreSet.cards' mapping"),
    ("score._Cards.__iter__", "ScoreSet.cards' mapping"),
    ("score._Cards.__len__", "ScoreSet.cards' mapping"),
]

# Run in the child: profile the import of the package and every command,
# then list each function defined in its source whose code never ran.
CENSUS = r'''
import cProfile, inspect, json, pstats, sys, types
from pathlib import Path

profile = cProfile.Profile()
profile.enable()
from plural import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
profile.disable()
called = set(pstats.Stats(profile).stats)

def functions(code, prefix):
    """(code, dotted name) of every function under `code`; class bodies
    and functions add their names to the prefix, other blocks nothing."""
    for const in code.co_consts:
        if not isinstance(const, types.CodeType):
            continue
        if const.co_name.startswith("<"):
            yield from functions(const, prefix)
            continue
        name = prefix + const.co_name
        if const.co_flags & inspect.CO_OPTIMIZED:
            yield const, name
        yield from functions(const, name + ".")

import plural
never = []
for path in sorted(Path(plural.__file__).parent.glob("*.py")):
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    for code, name in functions(module, path.stem + "."):
        if (code.co_filename, code.co_firstlineno, code.co_name) not in called:
            never.append(name)
print(json.dumps({"codes": codes, "never": sorted(never)}))
'''


def test_uncalled_functions_are_pinned(tmp_path):
    scenarios = {}
    for backend in ("gac_penrose", "mf"):
        doc = copy.deepcopy(FULL_SCENARIO)
        doc["scoring"]["backend"] = backend
        scenarios[backend] = tmp_path / f"{backend}.json"
        scenarios[backend].write_text(json.dumps(doc), encoding="utf-8")
    assert FULL_SCENARIO["advertisers"][0]["standing_purchase"]
    assert FULL_SCENARIO["sim"]["devotion_adapt_rate"] == 0.1
    reactions = tmp_path / "reactions.csv"
    config = ScenarioConfig.from_dict(copy.deepcopy(FULL_SCENARIO))
    reactions.write_text(sim.run(config).reactions.to_csv(), encoding="utf-8")
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1}', encoding="utf-8")

    argvs = [["run", "--scenario", str(path), "--out", str(tmp_path / backend)]
             for backend, path in scenarios.items()]
    argvs += [["score", "--reactions", str(reactions),
               "--fabric", str(tmp_path / "mf" / "fabric.json"),
               "--out", str(tmp_path / "scorecards.csv")],
              ["compare", "--scenario", str(scenarios["gac_penrose"]), "--seeds", "1",
               "--out", str(tmp_path / "compare")],
              # failing: a scenario missing its fields, an --out that is a directory
              ["run", "--scenario", str(bad), "--out", str(tmp_path / "bad")],
              ["score", "--reactions", str(reactions),
               "--fabric", str(tmp_path / "mf" / "fabric.json"), "--out", str(tmp_path)]]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.run([sys.executable, "-c", CENSUS, json.dumps(argvs)], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    census = json.loads(child.stdout)
    assert census["codes"] == [0, 0, 0, 0, 2, 2]
    never, pinned = Counter(census["never"]), Counter(name for name, _ in PINNED)
    assert (sorted((never - pinned).elements()), sorted((pinned - never).elements())) \
        == ([], []), "(uncalled but not pinned, pinned but called)"
