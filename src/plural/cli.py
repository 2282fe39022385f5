"""Command-line front end: scenario runs, offline scoring, paired comparisons.

Exit codes: 0 success, 2 validation problems (bad scenario, fabric or
reactions file, unknown backend, missing or unreadable files, an --out that
cannot be created or written, out-of-range flags) with a diagnostic naming
the offending path, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import os
import sys
from pathlib import Path
from typing import Iterable

from ._rng import SEED_MAX
from .config import ScenarioConfig, read_text
from .detect import principal_subcommunities
from .econ import LEDGER_CSV_HEAD, Ledger, csv_rows
from .errors import ConfigError, DegenerateInput, PluralError, TooSmall
from .fabric import SocialFabric
from .score import (ContentItem, ReactionMatrix, ScoreSet, ScoringParams,
                    score_round)
from . import sim as simulation

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class _OutputError(Exception):
    """An output directory or file could not be made or written; the
    message starts with its path."""


def _make_out_dir(out: str) -> None:
    """Create the --out directory."""
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _OutputError(f"{out}: cannot create the directory: {exc.strerror}") from None


def _write_error(path: Path, exc: OSError) -> _OutputError:
    return _OutputError(f"{path}: cannot write the file: {exc.strerror}")


def _write_file(path: Path, chunks: Iterable[str]) -> None:
    """Write `chunks` to `path` as UTF-8 with "\\n" line ends."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise _write_error(path, exc) from None


class _RoundStreams:
    """A run's sink: appends each round's feeds.jsonl lines and drained
    ledger.csv rows to `*.partial` files, which `commit` renames to their
    real names. It first deletes an earlier run's artifacts, and leaving the
    `with` block deletes what was not committed, so a run that fails leaves
    no artifact that looks like its own."""

    def __init__(self, out_dir: Path) -> None:
        for name in ("metrics.csv", "feeds.jsonl", "ledger.csv", "fabric.json", "scorecards.csv"):
            try:
                (out_dir / name).unlink(missing_ok=True)
            except OSError as exc:
                raise _write_error(out_dir / name, exc) from None
        self.paths = [out_dir / "feeds.jsonl", out_dir / "ledger.csv"]
        self.partials = [path.with_name(path.name + ".partial") for path in self.paths]
        self.files = []
        for partial in self.partials:
            try:
                self.files.append(open(partial, "w", encoding="utf-8", newline="\n"))
            except OSError as exc:
                self.close()
                raise _write_error(partial, exc) from None
        self._write(1, [LEDGER_CSV_HEAD])

    def __enter__(self) -> "_RoundStreams":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __call__(self, lines: Iterable[str], ledger: Ledger) -> None:
        self._write(0, lines)
        self._write(1, csv_rows(ledger.drain()))

    def _write(self, i: int, chunks: Iterable[str]) -> None:
        try:
            self.files[i].writelines(chunks)
        except OSError as exc:
            raise _write_error(self.partials[i], exc) from None

    def commit(self) -> None:
        """Close the files and give them their real names."""
        for fh, partial in zip(self.files, self.partials):
            try:
                fh.close()
            except OSError as exc:
                raise _write_error(partial, exc) from None
        for partial, path in zip(self.partials, self.paths):
            try:
                os.replace(partial, path)
            except OSError as exc:
                raise _write_error(path, exc) from None

    def close(self) -> None:
        """Close the files and delete whatever was not committed."""
        for fh in self.files:
            try:
                fh.close()
            except OSError:
                pass   # a failed run is being reported already
        for partial in self.partials:
            partial.unlink(missing_ok=True)


def _write_outputs(out_dir: Path, result) -> None:
    """Write the three artifacts that hold the run's end state."""
    community_ids = sorted(result.fabric.communities)
    _write_file(out_dir / "metrics.csv",
                [simulation.metrics_csv(result.metrics, community_ids)])
    _write_file(out_dir / "fabric.json", [result.fabric.to_json(indent=2)])
    scores = result.scores if result.scores is not None else ScoreSet()
    _write_file(out_dir / "scorecards.csv", scores.csv_lines())


def cmd_run(args: argparse.Namespace) -> int:
    """Execute one scenario and write every artifact under --out: feeds and
    ledger rows as each round ends, the rest when the run is over."""
    try:
        config = ScenarioConfig.load(args.scenario)
    except ConfigError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.rounds is not None and args.rounds < 0:
        print("--rounds must be >= 0", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None and not 0 <= args.seed <= SEED_MAX:
        print(f"--seed must be in [0, {SEED_MAX}], got {args.seed}", file=sys.stderr)
        return EXIT_CONFIG
    _make_out_dir(args.out)
    out_dir = Path(args.out)
    with _RoundStreams(out_dir) as streams:
        try:
            result = simulation.run(config, seed=args.seed, rounds=args.rounds,
                                    sink=streams)
        except PluralError as exc:
            print(f"run failed: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        _write_outputs(out_dir, result)
        streams.commit()
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    """One-shot scoring pass over a reactions log against a fabric snapshot.

    Blocs stored in the fabric are used as given; detection (seed 0) runs
    only for communities that store none.
    """
    try:
        params = ScoringParams(backend=args.backend)
    except ConfigError as exc:
        print(f"--backend: {exc.message}", file=sys.stderr)
        return EXIT_CONFIG
    reactions_path, fabric_path = Path(args.reactions), Path(args.fabric)
    for path in (reactions_path, fabric_path):
        if not path.exists():
            print(f"file not found: {path}", file=sys.stderr)
            return EXIT_CONFIG
    try:
        # ValueError covers unreadable files, undecodable text and invalid JSON.
        fabric = SocialFabric.from_json(read_text(fabric_path))
    except ValueError as exc:
        print(f"fabric error: {fabric_path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # Explicit, unlike SocialFabric.audit's asserts, so it holds under -O.
    for cid in sorted(fabric.communities):
        problem = fabric.communities[cid].bloc_problem()
        if problem is not None:
            print(f"fabric error: {fabric_path}: {problem}", file=sys.stderr)
            return EXIT_CONFIG
    try:
        text = read_text(reactions_path)
        reactions = ReactionMatrix.from_csv(text) if text.strip() else ReactionMatrix()
    except ValueError as exc:
        print(f"reactions error: {reactions_path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        catalog: dict[int, ContentItem] = {}
        current_round = 0
        for j, mid in enumerate(reactions.content_ids.tolist()):
            participants = set(reactions.citizen_ids[reactions.seen[j]].tolist())
            targets = {cid for cid, comm in fabric.communities.items()
                       if comm.members & participants}
            if not targets:
                continue
            rounds = reactions.round[j, reactions.seen[j]]
            current_round = max(current_round, int(rounds.max()))
            catalog[mid] = ContentItem(id=mid, creator=min(participants),
                                       created_round=int(rounds.min()),
                                       target_communities=targets)
        if catalog:
            matrix = reactions.to_attitudes(row_ids=sorted(fabric.citizens))
            for cid in sorted(fabric.communities):
                if fabric.communities[cid].principal_subcommunities:
                    continue
                try:
                    principal_subcommunities(fabric, cid, matrix, seed=0)
                except (TooSmall, DegenerateInput):
                    pass
        scores = score_round(fabric, catalog, reactions, params, current_round,
                             fabric.signatures())
    except PluralError as exc:
        print(f"scoring failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    _write_file(Path(args.out), scores.csv_lines())
    return EXIT_OK


_COMPARE_METRICS = ("mean_common_belief_top_bridging", "polarization_index",
                    "attention_gini", "platform_revenue")


def _discard(lines: Iterable[str], ledger: Ledger) -> None:
    """A sink that keeps no feeds or ledger rows, and so formats no feed line."""
    ledger.drain()


def compare_runs(config: ScenarioConfig, n_seeds: int) -> list[dict]:
    """Paired bridging-vs-baseline runs over n_seeds consecutive seeds.

    The baseline flips scoring to popularity_only (psi = iota); everything
    else, including the seed, matches its bridging partner. Only the last
    round's metrics are read, so the runs keep no feeds or ledger rows.
    """
    rows = []
    for i in range(n_seeds):
        seed = config.seed + i
        bridging_cfg = dataclasses.replace(
            config, seed=seed,
            scoring=dataclasses.replace(config.scoring, popularity_only=False))
        baseline_cfg = dataclasses.replace(
            config, seed=seed,
            scoring=dataclasses.replace(config.scoring, popularity_only=True))
        bridging = simulation.run(bridging_cfg, sink=_discard)
        baseline = simulation.run(baseline_cfg, sink=_discard)
        row = {"seed": seed}
        for name in _COMPARE_METRICS:
            b = getattr(bridging.metrics[-1], name) if bridging.metrics else 0.0
            e = getattr(baseline.metrics[-1], name) if baseline.metrics else 0.0
            row[f"bridging_{name}"] = b
            row[f"baseline_{name}"] = e
            row[f"delta_{name}"] = b - e
        rows.append(row)
    return rows


def comparison_csv(rows: list[dict]) -> str:
    import csv as _csv
    import io as _io
    buf = _io.StringIO()
    cols = ["seed"]
    for name in _COMPARE_METRICS:
        cols += [f"bridging_{name}", f"baseline_{name}", f"delta_{name}"]
    w = _csv.writer(buf, lineterminator="\n")
    w.writerow(cols)
    for row in rows:
        w.writerow([row["seed"]] + [repr(row[c]) for c in cols[1:]])
    summary = ["summary"]
    for name in _COMPARE_METRICS:
        deltas = [row[f"delta_{name}"] for row in rows]
        pos = sum(1 for d in deltas if d > 0)
        neg = sum(1 for d in deltas if d < 0)
        zero = len(deltas) - pos - neg
        summary += ["", "", f"+{pos}/-{neg}/={zero}"]
    w.writerow(summary)
    return buf.getvalue()


def cmd_compare(args: argparse.Namespace) -> int:
    """Run the bridging-vs-engagement-baseline harness over paired seeds."""
    try:
        config = ScenarioConfig.load(args.scenario)
    except ConfigError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seeds < 1:
        print("--seeds must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    if config.seed + args.seeds - 1 > SEED_MAX:
        print(f"--seeds {args.seeds} from scenario seed {config.seed} runs past seed "
              f"{SEED_MAX}", file=sys.stderr)
        return EXIT_CONFIG
    _make_out_dir(args.out)
    try:
        rows = compare_runs(config, args.seeds)
    except PluralError as exc:
        print(f"comparison failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    _write_file(Path(args.out) / "comparison.csv", [comparison_csv(rows)])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plural",
        description="Communitarian feed mechanism: simulate, score, compare.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario and export artifacts")
    p_run.add_argument("--scenario", required=True, help="scenario JSON path")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None,
                       help=f"override the scenario seed (0 to {SEED_MAX})")
    p_run.add_argument("--rounds", type=int, default=None, help="override the round count (>= 0)")
    p_run.set_defaults(func=cmd_run)

    p_score = sub.add_parser(
        "score", help="score a reactions log offline; blocs stored in the fabric "
                      "are used as given, detection (seed 0) runs only for "
                      "communities that store none")
    p_score.add_argument("--reactions", required=True, help="reactions CSV path")
    p_score.add_argument("--fabric", required=True, help="fabric JSON path")
    p_score.add_argument("--backend", default=ScoringParams.backend,
                         help="bridging backend (gac_uniform | gac_penrose | mf)")
    p_score.add_argument("--out", required=True, help="scorecards CSV path")
    p_score.set_defaults(func=cmd_score)

    p_cmp = sub.add_parser("compare", help="paired bridging-vs-baseline runs")
    p_cmp.add_argument("--scenario", required=True, help="scenario JSON path")
    p_cmp.add_argument("--seeds", type=int, default=10, help="number of paired seeds")
    p_cmp.add_argument("--out", required=True, help="output directory")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand with the cyclic garbage collector off.

    A run's state is acyclic and freed by reference counting, so the
    collector's passes over it free nothing; the caller's collector state
    is restored on the way out, also when argparse exits. An output that
    cannot be made or written ends the subcommand with exit 2.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
