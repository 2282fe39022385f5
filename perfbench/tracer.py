"""Spans and counters around the plural layers, installed from outside.

`Tracer.install()` replaces selected public functions and methods of the
plural modules with wrappers that record a span (name, start, end, parent
span) per call and count the work the call did. Spans stay in memory until
`layers()` folds them into the per-layer metrics at the end of the pass.
`restore()` puts every patched attribute back, so an untraced run in the
same process sees the modules exactly as they were.

Module-level functions are patched in every plural module that binds them
(sim imports `score_round` by name, for example), methods on their class.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

MODULES = ("config", "fabric", "detect", "score", "rank", "econ", "sim", "cli")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Observers add work counts from a call's arguments and result.

def _fcm(counts, args, kwargs, part):
    data = _arg(args, kwargs, 0, "data")
    counts["detect.fcm_iters"] += part.n_iters
    counts["detect.fcm_unconverged"] += not part.converged
    counts["detect.cells"] += data.values.size


def _score_round(counts, args, kwargs, scores):
    counts["score.cards"] += len(scores.cards)


def _balancing(counts, args, kwargs, result):
    counts["score.balancing_nonempty"] += bool(result)


def _mf(counts, args, kwargs, fit):
    counts["score.mf_items"] += len(fit.beta_raw)


def _exposure(counts, args, kwargs, weights):
    counts["rank.pool_entries"] += len(_arg(args, kwargs, 3, "pool"))


def _feed(counts, args, kwargs, feed):
    counts["rank.feed_entries"] += len(feed)
    counts["rank.feed_slots"] += _arg(args, kwargs, 4, "params").feed_size


def _settle(counts, args, kwargs, events):
    for event in events:
        counts[f"econ.{event['kind']}"] += 1


# (module, attribute, span name or None to count calls only, observer)
TARGETS = (
    ("config", "ScenarioConfig.load", "config.load", None),
    ("fabric", "SocialFabric.devotions", None, None),
    ("fabric", "SocialFabric.standings", None, None),
    ("fabric", "SocialFabric.member_communities", None, None),
    ("detect", "principal_subcommunities", "detect.principal_subcommunities", None),
    ("detect", "select_partition", None, None),
    ("detect", "fuzzy_c_means", "detect.fuzzy_c_means", _fcm),
    ("score", "score_round", "score.score_round", _score_round),
    ("score", "balancing_set", "score.balancing_set", _balancing),
    ("score", "ScoreSet.community_cards", "score.community_cards", None),
    ("score", "bloc_rates", "score.bloc_rates", None),
    ("score", "bridging_mf", "score.bridging_mf", _mf),
    ("rank", "exposure_weights", "rank.exposure_weights", _exposure),
    ("rank", "build_feed", "rank.build_feed", _feed),
    ("rank", "feed_to_records", "rank.feed_to_records", None),
    ("econ", "settle_round", "econ.settle_round", _settle),
    ("econ", "reward_standing", "econ.reward_standing", None),
    ("econ", "Ledger.post", None, None),
    ("sim", "gen_population", "sim.gen_population", None),
    ("sim", "react", "sim.react", None),
    ("sim", "run", "sim.run", None),
    ("cli", "main", "cli.main", None),
)


def plural_modules() -> dict:
    """Every loaded plural module, by name."""
    return {name: mod for name, mod in sys.modules.items()
            if name == "plural" or name.startswith("plural.")}


class Tracer:
    """One traced pass: install, run the program, restore, read `layers()`."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self.outcome = None   # what the last `sim.run` returned, for the audits
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------------

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += 1   # completed calls only: a refused posting is no posting
            return result
        return wrapper

    def _timed(self, name: str, fn, observe):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        keep = name == "sim.run"
        from plural.errors import PluralError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            counts[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except PluralError as exc:
                counts[f"{name}:{type(exc).__name__}"] += 1
                raise
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
            if keep:
                self.outcome = result
            return result
        return wrapper

    # -- patching ----------------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod in MODULES:
            importlib.import_module(f"plural.{mod}")
        modules = plural_modules()
        for mod, attr, name, observe in TARGETS:
            module = modules[f"plural.{mod}"]
            key = name or f"{mod}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                wrapped = self._timed(key, fn, observe) if name else self._counted(key, fn)
                self._patch(cls, meth, classmethod(wrapped) if is_classmethod else wrapped)
                continue
            fn = getattr(module, attr)
            wrapped = self._timed(key, fn, observe) if name else self._counted(key, fn)
            for other in modules.values():
                if other.__dict__.get(attr) is fn:
                    self._patch(other, attr, wrapped)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------------

    def layers(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        total: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        own = {name: total[name] - child[name] for name in total}
        c = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "config.load_s": total["config.load"],
            "sim.gen_population_s": total["sim.gen_population"],
            "sim.loop_self_s": own.get("sim.run", 0.0),
            "sim.react_s": total["sim.react"],
            "sim.react_calls": c["sim.react"],
            "fabric.reads": c["fabric.devotions"] + c["fabric.standings"]
                            + c["fabric.member_communities"],
            "detect.principal_subcommunities_s": total["detect.principal_subcommunities"],
            "detect.refreshes": c["detect.principal_subcommunities"],
            "detect.refresh_failed": c["detect.principal_subcommunities:TooSmall"]
                                     + c["detect.principal_subcommunities:DegenerateInput"],
            "detect.fuzzy_c_means_s": total["detect.fuzzy_c_means"],
            "detect.fcm_runs": c["detect.fuzzy_c_means"],
            "detect.fcm_iters": c["detect.fcm_iters"],
            "detect.fcm_unconverged": c["detect.fcm_unconverged"],
            "detect.fcm_kept_frac": ratio(c["detect.select_partition"],
                                          c["detect.fuzzy_c_means"]),
            "detect.cells": c["detect.cells"],
            "score.score_round_s": total["score.score_round"],
            "score.score_round_self_s": own.get("score.score_round", 0.0),
            "score.cards": c["score.cards"],
            "score.cards_per_s": ratio(c["score.cards"], total["score.score_round"]),
            "score.balancing_set_s": total["score.balancing_set"],
            "score.balancing_calls": c["score.balancing_set"],
            "score.balancing_nonempty_frac": ratio(c["score.balancing_nonempty"],
                                                   c["score.balancing_set"]),
            "score.community_cards_s": total["score.community_cards"],
            "score.community_cards_calls": c["score.community_cards"],
            "score.bloc_rates_s": total["score.bloc_rates"],
            "score.bridging_mf_s": total["score.bridging_mf"],
            "score.mf_fits": c["score.bridging_mf"] - c["score.bridging_mf:InsufficientData"],
            "score.mf_fallbacks": c["score.bridging_mf:InsufficientData"],
            "score.mf_items": c["score.mf_items"],
            "rank.exposure_weights_s": total["rank.exposure_weights"],
            "rank.pool_entries": c["rank.pool_entries"],
            "rank.build_feed_s": total["rank.build_feed"],
            "rank.feeds": c["rank.build_feed"],
            "rank.feed_entries": c["rank.feed_entries"],
            "rank.feed_fill": ratio(c["rank.feed_entries"], c["rank.feed_slots"]),
            "rank.feed_to_records_s": total["rank.feed_to_records"],
            "econ.settle_round_s": total["econ.settle_round"],
            "econ.postings": c["econ.post"],
            "econ.lambda_clamped": c["econ.lambda_clamped"],
            "econ.ad_skipped": c["econ.ad_skipped"],
            "econ.reward_standing_s": total["econ.reward_standing"],
            "cli.main_s": total["cli.main"],
            "cli.export_s": total["cli.main"] - total["config.load"] - total["sim.run"],
        }
