"""Child processes of the benchmark; run with PYTHONPATH pointing at ``src``.

    child.py setup --config PIPELINE --result FILE
        Time a fresh process importing refinery, loading the config and, for
        document workloads, training the classifier; write the seconds to FILE.

    child.py stage --stage NAME --config PIPELINE --output DIR [--input PATH]
                   --spans FILE --run-id ID
        Run one stage through ``refinery.cli.run_stage`` with every traced
        function wrapped, then write the spans to FILE.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def setup(config_path: str, result: str) -> None:
    import refinery  # noqa: F401
    from refinery.config import load_config, resolve
    from refinery.lid import NgramLanguageClassifier

    config = load_config(config_path)
    base = Path(config_path).resolve().parent
    if config.lid.seed_texts:
        NgramLanguageClassifier.train({
            label: resolve(path, base).read_text(encoding="utf-8")
            for label, path in config.lid.seed_texts.items()
        })
    Path(result).write_text(repr(perf_counter() - _STARTED), encoding="utf-8")


def stage(args) -> None:
    import logging
    import os

    import spans
    from refinery import cli
    from refinery.config import load_config

    logging.basicConfig(
        level=os.environ.get("REFINERY_LOG", "INFO").upper(),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    tracer = spans.Tracer(args.run_id)
    spans.install(tracer)
    config = load_config(args.config)
    run_stage = tracer.wrap("cli.run_stage", cli.run_stage)
    try:
        run_stage(args.stage, config, Path(args.config).resolve().parent, None, args.input, args.output)
    finally:
        tracer.dump(Path(args.spans))


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--config", required=True)
    p.add_argument("--result", required=True)
    p = sub.add_parser("stage")
    p.add_argument("--stage", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--input", default=None)
    p.add_argument("--spans", required=True)
    p.add_argument("--run-id", required=True)
    args = parser.parse_args()
    if args.mode == "setup":
        setup(args.config, args.result)
    else:
        stage(args)


if __name__ == "__main__":
    sys.exit(main())
