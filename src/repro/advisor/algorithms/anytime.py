"""Anytime greedy: every monotone improvement is published as a
``best_so_far`` progress event, so a ``/v1/jobs`` client can cancel the
run at any point and keep the last event as its result.

The search itself is the single-start pure-greedy loop (largest
feasible cost drop per step, same acceptance threshold as the default
algorithm) followed by the method polish — but *every* accepted step
emits, in addition to the usual ``greedy_step`` event, a
``best_so_far`` event carrying the full configuration (sorted display
names), its cost and its consumed bytes.  The contract tested by the
determinism suite: at any cancellation point the last emitted
``best_so_far`` equals the configuration the run held at that moment,
and an uncancelled run's final result equals its last event.

Cancellation rides the ordinary progress-hook unwind: the job layer's
hook raises :class:`repro.errors.JobCancelled` from inside ``_emit``,
the search aborts at that event, and the client keeps the
``best_so_far`` prefix it already streamed.
"""

from __future__ import annotations

from repro.advisor.algorithms.base import (
    EnumerationResult,
    SelectionAlgorithm,
    register,
)
from repro.compression.base import CompressionMethod
from repro.physical.configuration import Configuration
from repro.physical.index_def import IndexDef


@register
class AnytimeGreedyAlgorithm(SelectionAlgorithm):
    """Greedy that streams each monotone improvement as a
    ``best_so_far`` job event for cancel-early clients."""

    name = "anytime"
    summary = (
        "Single-start greedy streaming each improvement as a "
        "best_so_far event; cancel early and keep the last one"
    )

    @classmethod
    def options_schema(cls) -> dict:
        return {
            **super().options_schema(),
            "strategy": {
                "type": "string", "default": "greedy",
                "description": "'greedy' or 'density' step scoring",
            },
        }

    def _bound_pruning_safe(self) -> bool:
        # Same argument as the default algorithm's pure-greedy path:
        # acceptance is best-feasible-above-threshold, no backtracking.
        return self.options.strategy == "greedy"

    def run(self, pool: list[IndexDef],
            base_config: Configuration) -> EnumerationResult:
        self._rebase(base_config)
        cost = self.workload_cost(base_config)
        config = base_config
        steps: list[str] = []
        self._improvement_seq = 0
        # Publish the base immediately: a client cancelling before the
        # first improvement still holds a well-defined best-so-far.
        self._publish(config, cost, "base")
        config, cost = self._greedy(pool, config, cost, steps)
        config, cost = self._polish(config, cost, steps)
        return EnumerationResult(
            configuration=config,
            cost=cost,
            consumed_bytes=self.consumed(config),
            steps=steps,
        )

    # ------------------------------------------------------------------
    def _publish(self, config: Configuration, cost: float,
                 label: str) -> None:
        self._improvement_seq += 1
        self._emit(
            "best_so_far",
            improvement_seq=self._improvement_seq,
            cost=cost,
            consumed_bytes=self.consumed(config),
            configuration=sorted(
                ix.display_name() for ix in config
            ),
            step=label,
        )

    def _accept(self, config: Configuration, cost: float, label: str,
                steps: list[str]) -> None:
        steps.append(label)
        self._emit_step("anytime", label, cost)
        self._rebase(config)
        self._publish(config, cost, label)

    # ------------------------------------------------------------------
    def _greedy(
        self,
        pool: list[IndexDef],
        current: Configuration,
        current_cost: float,
        steps: list[str],
    ) -> tuple[Configuration, float]:
        options = self.options
        for _step in range(options.max_steps):
            moves = []
            for ix in pool:
                if ix in current:
                    continue
                candidate = current.add(ix)
                if candidate == current:
                    continue
                moves.append((ix, candidate))
            # Cancellation point before each costing sweep.
            self._emit("sweep", candidates=len(moves), cost=current_cost)
            threshold = None
            if self._prune_bounds:
                threshold = 0.5 * options.min_improvement * max(
                    current_cost, 1e-9
                )
            costs = self._candidate_costs(
                [candidate for _ix, candidate in moves], threshold
            )
            best = None  # (score, cost, config, name)
            current_size = self.consumed(current)
            for (ix, candidate), move_cost in zip(moves, costs):
                if move_cost is None:
                    continue
                delta_cost = current_cost - move_cost
                if delta_cost <= 0:
                    continue
                size = self.consumed(candidate)
                if not self.within_budget(size):
                    continue
                delta_size = size - current_size
                score = self._score(delta_cost, delta_size)
                if best is None or score > best[0]:
                    best = (score, move_cost, candidate, ix.display_name())
            if best is None:
                break
            _score, new_cost, new_config, name = best
            if (current_cost - new_cost) < options.min_improvement * max(
                current_cost, 1e-9
            ):
                break
            self._accept(
                new_config, new_cost,
                f"add {name}: {current_cost:.1f} -> {new_cost:.1f}",
                steps,
            )
            current, current_cost = new_config, new_cost
        return current, current_cost

    # ------------------------------------------------------------------
    def _polish(
        self,
        config: Configuration,
        cost: float,
        steps: list[str],
    ) -> tuple[Configuration, float]:
        """Method hill-climb, publishing each accepted swap."""
        if self.options.allow_compression:
            methods = (CompressionMethod.NONE, CompressionMethod.ROW,
                       CompressionMethod.PAGE)
        else:
            methods = (CompressionMethod.NONE,)
        for _round in range(len(list(config)) * len(methods) + 1):
            swaps = []
            for ix in config.ordered():
                for method in methods:
                    if method is ix.method:
                        continue
                    swapped = config.replace(ix, ix.with_method(method))
                    if not self.fits(swapped):
                        continue
                    swaps.append((ix, method, swapped))
            self._emit("sweep", candidates=len(swaps), cost=cost)
            swap_costs = self.batch_cost(
                [swapped for _ix, _m, swapped in swaps]
            )
            best = None  # (cost, config, label)
            for (ix, method, swapped), swap_cost in zip(swaps, swap_costs):
                if swap_cost < cost - 1e-9 and (
                    best is None or swap_cost < best[0]
                ):
                    best = (
                        swap_cost, swapped,
                        f"polish {ix.display_name()} -> {method.name}: "
                        f"-> {swap_cost:.1f}",
                    )
            if best is None:
                break
            cost, config = best[0], best[1]
            self._accept(config, cost, best[2], steps)
        return config, cost
