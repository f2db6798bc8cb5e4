"""Command-line front end.

One subcommand per task plus `run-suite`.  Every computational subcommand
reads a job file, applies any flag overrides, runs the task, and writes
the report to stdout or --out.  Errors leave a single machine-parsable
line on stderr, `error: <kind>: <message>`, and the exit code groups the
failure: 1 for bad input, 2 for a resource limit, 3 for an internal
defect.  Reports are deterministic: rerunning a job reproduces the output
byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import CharplabError, InputError
from .jobs import TASKS, check_expectations, load_job_file, parse_job, run_job


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an InputError, so that it leaves the one
    error line and exit code 1 of every other bad input; subcommand
    parsers are built from the same class."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="charplab",
        description="characteristic-p invariants of quotient rings")
    sub = parser.add_subparsers(dest="command", required=True)

    for task in TASKS:
        sp = sub.add_parser(task, help=f"run a '{task}' job")
        sp.add_argument("--job", required=True, help="path to a job file")
        sp.add_argument("--out", help="write the report here instead of "
                                      "stdout")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--order", choices=("grevlex", "lex"),
                        help="override the monomial order")
        sp.add_argument("--emax", type=int, help="override params.e_max")
        sp.add_argument("--neighborhood", type=int,
                        help="override params.N")
        sp.add_argument("--samples", type=int, help="override params.samples")
        sp.add_argument("--seed", type=int, help="override params.seed")
        sp.add_argument("--limit-basis", type=int,
                        help="override limits.basis")
        sp.add_argument("--limit-degree", type=int,
                        help="override limits.degree")

    suite = sub.add_parser("run-suite", help="run every job in a directory "
                                             "and check its expectations")
    suite.add_argument("directory", nargs="?", default="paper-suite")
    suite.add_argument("--out-dir", help="also write each job's CSV and "
                                         "JSON reports into this directory")
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    """The flags that were given, in job-file terms."""
    given = {"params": {"order": args.order, "e_max": args.emax,
                        "N": args.neighborhood, "samples": args.samples,
                        "seed": args.seed},
             "limits": {"basis": args.limit_basis,
                        "degree": args.limit_degree}}
    return {section: {k: v for k, v in flags.items() if v is not None}
            for section, flags in given.items()}


def _write(path: str, text: str) -> None:
    """Write a report; a path given that cannot be written is bad input."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as err:
        raise InputError(f"cannot write {path}: {err}") from err


def _run_task(args: argparse.Namespace) -> int:
    raw = load_job_file(args.job)
    if raw.get("task") != args.command:
        raise InputError(
            f"job file declares task '{raw.get('task')}' but the "
            f"'{args.command}' subcommand was invoked")
    job = parse_job(raw, overrides=_overrides(args))
    doc = run_job(job)
    text = doc.to_csv() if args.format == "csv" else doc.to_json()
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _run_suite(args: argparse.Namespace) -> int:
    directory = args.directory
    if not os.path.isdir(directory):
        raise InputError(f"suite directory {directory!r} does not exist")
    names = sorted(n for n in os.listdir(directory) if n.endswith(".json"))
    if not names:
        raise InputError(f"no job files in {directory!r}")
    if args.out_dir:
        try:
            os.makedirs(args.out_dir, exist_ok=True)
        except OSError as err:
            raise InputError(f"cannot write {args.out_dir}: {err}") from err
    failed = 0
    for name in names:
        path = os.path.join(directory, name)
        try:
            job = parse_job(load_job_file(path))
            doc = run_job(job)
            rendered = doc.to_json()
            problems = check_expectations(rendered, job.expect)
            if args.out_dir:
                stem = os.path.join(args.out_dir, name[:-len(".json")])
                _write(stem + ".csv", doc.to_csv())
                _write(stem + ".report.json", rendered)
        except CharplabError as err:
            problems = [f"{err.kind}: {err}"]
        if problems:
            failed += 1
            print(f"FAIL {name}: " + "; ".join(problems))
        else:
            print(f"ok   {name}")
    print(f"{len(names) - failed}/{len(names)} jobs passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run-suite":
            return _run_suite(args)
        return _run_task(args)
    except CharplabError as err:
        message = " ".join(str(err).split())
        print(f"error: {err.kind}: {message}", file=sys.stderr)
        return err.exit_code
    except Exception as err:  # noqa: BLE001 - last-resort guard
        message = " ".join(str(err).split())
        print(f"error: internal: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
