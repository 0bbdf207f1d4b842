#!/usr/bin/env python3
"""Bring-your-own telemetry: CSV traces → profile → persist → explain.

The workflow a downstream operator would actually follow:

1. export per-second telemetry (cgroups CPU, GPU-Z counters) as CSV —
   here we synthesize it and write the same files a collector would;
2. load the CSVs and run the frame-grained profiler on them;
3. train the stage predictors and *persist* the whole profile as JSON
   ("profiling and model training only need to be performed once");
4. reload it in a fresh object and inspect what the predictor attends
   to via feature importances.

Run:  python examples/bring_your_own_trace.py
"""

import tempfile
from pathlib import Path

from repro import build_catalog, generate_corpus
from repro.analysis.report import format_table
from repro.core.pipeline import GameProfile
from repro.core.profiler import FrameGrainedProfiler, ProfilerConfig
from repro.core.predictor import StagePredictor
from repro.util.timeseries import ResourceSeries

GAME = "genshin"
SEED = 13


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="cocg-") as tmp:
        run(Path(tmp))


def run(workdir: Path) -> None:
    """The whole workflow; every file it writes lands in ``workdir``."""
    catalog = build_catalog()
    spec = catalog[GAME]
    print(f"workspace: {workdir}")

    # 1. "Collect" telemetry and write it as CSV (what a real collector
    #    exporting cgroup + GPU-Z counters would produce).
    bundles = generate_corpus(spec, n_players=4, sessions_per_player=3, seed=SEED)
    csv_paths = []
    for i, bundle in enumerate(bundles):
        path = workdir / f"{GAME}-session{i:02d}.csv"
        bundle.series.to_csv(path)
        csv_paths.append(path)
    print(f"wrote {len(csv_paths)} telemetry CSVs "
          f"({sum(p.stat().st_size for p in csv_paths) // 1024} KiB)")

    # 2. Load them back — from here on, nothing knows the traces were
    #    synthetic.
    traces = [ResourceSeries.from_csv(p) for p in csv_paths]
    profiler = FrameGrainedProfiler(
        GAME, config=ProfilerConfig(n_clusters=len(spec.clusters))
    )
    library = profiler.fit(traces)
    print("\n" + library.summary())

    # 3. Train a predictor on the profiled sessions and persist the
    #    whole artifact.
    segments = [
        (f"player-{i % 4}", profiler.segment_with(library, t.resample(5.0).values))
        for i, t in enumerate(traces)
    ]
    predictor = StagePredictor(library, spec.category, backend="gbdt", seed=SEED)
    accuracy = predictor.train(segments)
    print(f"\nGBDT next-stage accuracy: {accuracy:.1%}")

    profile = GameProfile(
        spec=spec, library=library,
        predictors={"gbdt": predictor}, corpus_segments=segments,
    )
    artifact = workdir / f"{GAME}.profile.json"
    profile.save(artifact)
    print(f"saved profile: {artifact} ({artifact.stat().st_size // 1024} KiB)")

    # 4. Reload and explain.
    reloaded = GameProfile.load(artifact, spec)
    report = reloaded.predictors["gbdt"].feature_report(top=6)
    print("\n" + format_table(
        ["feature", "importance"],
        [[name, weight] for name, weight in report],
        title="What the reloaded predictor attends to",
    ))
    hist = reloaded.library.execution_types[:1]
    predicted, confidence = reloaded.predictors["gbdt"].predict_next(hist)
    print(f"\nafter {hist[0]!r}, predicted next stage: {predicted!r} "
          f"(confidence {confidence:.0%})")


if __name__ == "__main__":
    main()
