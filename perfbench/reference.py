"""Bitwise check of served answers against an in-process ``HypeRService``.

The reference is built on the same dataset, seed and engine config as the
server (threads execution, default caches).  For ``update-mix`` it replays
the same commit sequence, and each sampled answer is compared at the
generation the server answered it from.
"""

from __future__ import annotations

import random

from repro import EngineConfig, HypeRService
from repro.api.schemas import answer_from_result

from .loadgen import signature
from .workloads import commit_values


def engine_config() -> EngineConfig:
    """The config ``repro serve --regressor linear`` builds."""
    return EngineConfig(regressor="linear")


def check_answers(
    answers: dict[tuple[int, str], set],
    dataset,
    seed: int,
    sample_size: int,
    always: set[tuple[int, str]] = frozenset(),
) -> tuple[int, list[str]]:
    """Compare a seeded sample of ``answers`` (plus ``always``) with the reference.

    Returns ``(n_checked, mismatches)``; a key answered differently by two
    servers or two requests is a mismatch even before the reference is asked.
    """
    keys = sorted(answers)
    rng = random.Random(seed)
    chosen = set(rng.sample(keys, min(sample_size, len(keys)))) | set(always)
    mismatches = [
        f"gen {generation}: {text!r} answered {len(answers[(generation, text)])} ways"
        for generation, text in keys
        if len(answers[(generation, text)]) > 1
    ]
    service = HypeRService(dataset.database, dataset.causal_dag, engine_config())
    try:
        applied = 0
        for generation, text in sorted(chosen):
            while service.generation < generation:
                service.update_relation_columns(
                    {"Credit": {"Status": commit_values(dataset, seed, applied)}}
                )
                applied += 1
            if service.generation != generation:
                mismatches.append(f"reference reached generation {service.generation}, not {generation}")
                break
            expected = signature(answer_from_result(service.execute(text)))
            served = answers[(generation, text)]
            if served != {expected}:
                mismatches.append(f"gen {generation}: {text!r} served {served}, expected {expected}")
    finally:
        service.close()
    return len(chosen), mismatches
