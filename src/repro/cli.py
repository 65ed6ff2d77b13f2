"""The ``tels`` command line — the Fig. 9 TELS command set, plus experiments.

Commands mirroring the five commands of the original tool:

* ``tels stats FILE``       — network information (gates, levels, literals);
* ``tels map FILE``         — one-to-one threshold mapping of the optimized
  decomposed network;
* ``tels synth FILE``       — TELS threshold synthesis;
* ``tels simulate FILE``    — synthesize and simulate against the source for
  functional correctness;
* ``tels print-th FILE``    — display a synthesized threshold network.

Extras for the reproduction:

* ``tels bench NAME``       — emit a benchmark stand-in as BLIF;
* ``tels table1`` / ``fig10`` / ``fig11`` / ``fig12`` — regenerate the
  paper's experiments;
* ``tels sweep``            — delta_on sweep sharing one engine result store;
* ``tels enumerate N``      — the Section VI-B function counts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from repro.benchgen.mcnc import benchmark_names
from repro.core.area import boolean_stats, network_stats
from repro.core.mapping import one_to_one_map
from repro.core.synthesis import (
    CLIENT_FIELDS,
    SynthesisOptions,
    synthesize_with_report,
)
from repro.core.threshold import gate_table
from repro.core.verify import verify_threshold_network
from repro.errors import ReproError
from repro.io.blif import read_blif, to_blif, write_blif
from repro.io.thblif import (
    parse_thblif,
    read_thblif,
    to_thblif,
    write_thblif,
)
from repro.network.scripts import prepare_one_to_one, prepare_tels


def _flag(*spellings: str, **settings) -> tuple[tuple[str, ...], dict]:
    return spellings, settings


def _option_flags() -> dict[str, tuple[tuple[str, ...], dict]]:
    """Each option flag's spellings and argparse settings.

    Keyed by the :class:`SynthesisOptions` field the flag sets; the
    defaults come from SynthesisOptions (:func:`_add_option_flags`).
    """
    from repro.gates import model_names
    from repro.ilp.solve import BACKENDS

    return {
        "psi": _flag("--psi", type=int, help="fanin restriction"),
        "gate_model": _flag(
            "--gate-model",
            choices=model_names(),
            help="gate-model backend: ltg (paper default), multi-threshold "
            "(k-threshold gates absorbing parity cones), flash "
            "(grid-quantized weights with drift-derived margins)",
        ),
        "delta_on": _flag("--delta-on", type=int, help="ON tolerance"),
        "delta_off": _flag("--delta-off", type=int, help="OFF tolerance"),
        "seed": _flag("--seed", type=int, help="tie-break seed"),
        "backend": _flag(
            "--ilp-backend",
            "--backend",  # legacy alias
            choices=BACKENDS,
            help="ILP solver backend",
        ),
        "use_fastpath": _flag(
            "--no-fastpath",
            action="store_false",
            help="disable the Chow-parameter fast path (always solve the ILP)",
        ),
        "lint": _flag(
            "--no-lint",
            action="store_false",
            help="skip the static lint post-pass over the synthesized network",
        ),
        "analyze": _flag(
            "--analyze",
            action="store_true",
            help="run the whole-network dataflow analysis post-pass "
            "(certificate + verified removal candidates in the trace summary)",
        ),
        "deadline_per_cone_s": _flag(
            "--deadline-per-cone",
            type=float,
            metavar="SECONDS",
            help="wall-clock budget per cone; a cone blowing it degrades to "
            "the one-to-one mapping (see docs/RESILIENCE.md)",
        ),
        "deadline_total_s": _flag(
            "--deadline-total",
            type=float,
            metavar="SECONDS",
            help="wall-clock budget for the whole run; unfinished cones "
            "degrade on expiry",
        ),
        "max_attempts": _flag(
            "--max-attempts",
            type=int,
            help="dispatch attempts per cone before degrading (transient "
            "failures retry with exponential backoff)",
        ),
        "strict_synthesis": _flag(
            "--strict-synthesis",
            action="store_true",
            help="fail instead of degrading a cone that times out, crashes "
            "repeatedly, or exhausts its retries",
        ),
    }


def _add_option_flags(
    parser: argparse.ArgumentParser, fields: tuple[str, ...] | None = None
) -> None:
    """Add the option flags of ``fields`` (every option flag when None).

    Each flag stores into its field, defaulting to the field's
    :class:`SynthesisOptions` default; :func:`_options` reads them back.
    """
    table = _option_flags()
    fields = tuple(table) if fields is None else fields
    defaults = SynthesisOptions()
    for name in fields:
        spellings, settings = table[name]
        parser.add_argument(
            *spellings, dest=name, default=getattr(defaults, name), **settings
        )
    parser.set_defaults(option_fields=fields)


def _options(args: argparse.Namespace) -> SynthesisOptions:
    """The command's option flags, validated by SynthesisOptions (exit 2)."""
    return SynthesisOptions(
        **{name: getattr(args, name) for name in args.option_fields}
    )


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache",
        metavar="DIR",
        help="persistent synthesis-cache directory "
        "(default: the TELS_CACHE environment variable, if set)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore the persistent cache even when TELS_CACHE is set",
    )


def _cache_dir(args: argparse.Namespace) -> str | None:
    """Resolve the persistent-cache directory from flags and environment."""
    import os

    if args.no_cache:
        return None
    return args.cache or os.environ.get("TELS_CACHE") or None


def _add_run_args(parser: argparse.ArgumentParser, local: bool = True) -> None:
    """The run's cache and worker flags; ``local`` adds ``--cache DIR`` and
    ``--distribute``, which ``tels submit`` leaves to the daemon."""
    if local:
        _add_cache_args(parser)
        parser.add_argument(
            "--distribute",
            metavar="URL",
            help="farm cones to `tels worker` processes through this serve "
            "daemon; on total worker loss the run degrades to a local "
            "executor and still completes with identical output",
        )
    else:
        parser.add_argument(
            "--no-cache",
            action="store_true",
            help="run the job on a private empty store instead of the "
            "daemon's shared one",
        )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="cone-synthesis worker processes (0 = all cores)",
    )


def _synthesize(args: argparse.Namespace, source, cancel=None):
    """Prepare and synthesize ``source`` as the command's flags say:
    ``(threshold network, SynthesisReport)``."""
    return synthesize_with_report(
        prepare_tels(source),
        _options(args),
        jobs=args.jobs,
        cache_dir=_cache_dir(args),
        cancel=cancel,
        distribute=args.distribute,
    )


def cmd_stats(args: argparse.Namespace) -> int:
    network = read_blif(args.file)
    stats = boolean_stats(network)
    print(f"model:    {network.name}")
    print(f"inputs:   {len(network.inputs)}")
    print(f"outputs:  {len(network.outputs)}")
    print(f"nodes:    {stats.gates}")
    print(f"levels:   {stats.levels}")
    print(f"literals: {stats.area}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.errors import SynthesisCancelled

    network = read_blif(args.file)
    # Ctrl-C cancels cooperatively: the first SIGINT sets the flag, the
    # scheduler stops between cones and reaps its pool workers (a second
    # Ctrl-C falls through to the default handler and kills the process).
    cancel = threading.Event()

    def _on_sigint(signum, frame):
        if cancel.is_set():
            raise KeyboardInterrupt
        cancel.set()
        print(
            "tels synth: interrupt received, stopping between cones "
            "(Ctrl-C again to kill)",
            file=sys.stderr,
        )

    try:
        previous = signal.signal(signal.SIGINT, _on_sigint)
    except ValueError:  # not the main thread (embedded use): no handler
        previous = None
    try:
        threshold_net, report = _synthesize(args, network, cancel)
    except SynthesisCancelled as exc:
        print(f"tels synth: {exc}", file=sys.stderr)
        return 130
    finally:
        if previous is not None:
            signal.signal(signal.SIGINT, previous)
    ok = verify_threshold_network(network, threshold_net)
    stats = network_stats(threshold_net)
    print(f"TELS: {stats} verified={ok}")
    print(
        f"processed={report.nodes_processed} binate_splits="
        f"{report.binate_splits} unate_splits={report.unate_splits} "
        f"theorem2={report.theorem2_applications}"
    )
    check = report.checker.stats if report.checker else None
    if check is not None:
        print(
            f"checks: {check.calls} calls, {check.cache_hits} cache hits "
            f"({100.0 * check.cache_hit_rate:.1f}%), "
            f"{check.ilp_solved} ILPs ({check.ilp_feasible} feasible), "
            f"constraints {check.constraints_emitted} "
            f"(vs {check.constraints_without_elimination} unrestricted)"
        )
        print(
            f"fastpath: {check.fastpath_hits} hits, "
            f"{check.fastpath_negatives} negatives, "
            f"{check.fastpath_misses} misses "
            f"({100.0 * check.fastpath_hit_rate:.1f}% resolved without ILP)"
        )
        print(
            f"solvers: exact {check.exact_solves} solves "
            f"{check.exact_wall_s:.3f}s, "
            f"scipy {check.scipy_solves} solves {check.scipy_wall_s:.3f}s"
        )
    if report.trace is not None:
        print(report.trace.format_summary())
    cache_dir = _cache_dir(args)
    store = report.checker.store if report.checker else None
    if cache_dir and store is not None and store.persistent is not None:
        s = store.stats
        print(
            f"cache: {cache_dir} holds {len(store.persistent)} entries; "
            f"this run: {s.persistent_hits} hits, "
            f"{s.persistent_misses} misses, "
            f"{s.transformed_hits} NP-transformed, "
            f"{s.transform_rejects} rejected"
        )
    if report.degraded_cones:
        cones = ", ".join(
            f"{d.task_id} ({d.reason})" for d in report.degraded
        )
        print(
            f"warning: {report.degraded_cones} cone(s) degraded to "
            f"one-to-one mapping: {cones}",
            file=sys.stderr,
        )
    lint_failed = False
    if report.lint is not None:
        from repro.lint.emitters import format_text

        if not report.lint.is_clean:
            print(format_text(report.lint))
        lint_failed = report.lint.violations > 0
    if args.output:
        write_thblif(threshold_net, args.output)
        print(f"wrote {args.output}")
    elif args.print_network:
        print(to_thblif(threshold_net), end="")
    return 0 if ok and not lint_failed else 1


def cmd_map(args: argparse.Namespace) -> int:
    options = _options(args)
    network = read_blif(args.file)
    prepared = prepare_one_to_one(network, max_fanin=options.psi)
    threshold_net = one_to_one_map(
        prepared,
        delta_on=options.delta_on,
        delta_off=options.delta_off,
        backend=options.backend,
    )
    ok = verify_threshold_network(network, threshold_net)
    print(f"one-to-one: {network_stats(threshold_net)} verified={ok}")
    if args.output:
        write_thblif(threshold_net, args.output)
        print(f"wrote {args.output}")
    return 0 if ok else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    network = read_blif(args.file)
    threshold_net, _ = _synthesize(args, network)
    ok = verify_threshold_network(network, threshold_net, vectors=args.vectors)
    mode = (
        "exhaustively"
        if len(network.inputs) <= 14
        else f"with {args.vectors} random vectors"
    )
    print(f"simulated {mode}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_print_th(args: argparse.Namespace) -> int:
    network = read_thblif(args.file)
    stats = network_stats(network)
    print(f"model: {network.name}  ({stats})")
    for name, inputs, vector in gate_table(network):
        print(f"  {name:24s} <- [{inputs}]  {vector}")
    return 0


def _expand_paths(paths: list[str], suffixes: tuple[str, ...]) -> list[str]:
    """Expand directories into their matching files (sorted), keep files."""
    from pathlib import Path

    out: list[str] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            matches = sorted(
                str(f)
                for f in p.iterdir()
                if f.is_file() and f.suffix in suffixes
            )
            out.extend(matches)
        else:
            out.append(raw)
    return out


def _analyze_load(args: argparse.Namespace, path: str):
    """Load one analyze input: (threshold network, golden BooleanNetwork)."""
    from repro.analysis import threshold_to_boolean

    if path.endswith(".th"):
        network = read_thblif(path)
        return network, threshold_to_boolean(network)
    source = read_blif(path)
    network, _ = _synthesize(args, source)
    return network, source


def cmd_analyze(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import (
        AnalysisOptions,
        analyze_threshold_network,
        apply_removals,
    )
    from repro.analysis.report import format_analysis_report
    from repro.core.analysis import analyze_network, format_analysis
    from repro.core.technology import format_mobile_report, mobile_report
    from repro.lint.diagnostics import (
        EXIT_CLEAN,
        EXIT_USAGE,
        EXIT_VIOLATIONS,
        LintOptions,
        merge_reports,
    )
    from repro.lint.emitters import render
    from repro.lint.runner import run_lint

    files = _expand_paths(args.files, (".th", ".blif"))
    if not files:
        print("analyze: no input files found", file=sys.stderr)
        return EXIT_USAGE
    if args.apply and len(files) != 1:
        print(
            "analyze: --apply takes exactly one input file",
            file=sys.stderr,
        )
        return EXIT_USAGE

    aopts = AnalysisOptions(
        gate_model=args.gate_model, vectors=args.vectors, seed=args.seed
    )
    entries = []  # (path, network, golden source, AnalysisResult, report)
    for path in files:
        network, golden = _analyze_load(args, path)
        result = analyze_threshold_network(network, aopts)
        report = run_lint(
            network,
            LintOptions(
                analysis=True,
                gate_model=args.gate_model,
                gate_lines=dict(network.gate_lines),
            ),
            source=golden,
            file=path,
            analysis=result,
        )
        entries.append((path, network, golden, result, report))

    merged = merge_reports(
        [e[4] for e in entries], name=f"{len(entries)} files"
    )
    unverified = sum(len(e[3].unverified_findings) for e in entries)

    if args.apply:
        return _analyze_apply(args, entries[0], apply_removals)

    if args.format == "text":
        blocks = []
        for path, network, _, result, _ in entries:
            blocks.append(
                "\n\n".join(
                    (
                        format_analysis(analyze_network(network)),
                        format_mobile_report(mobile_report(network)),
                        format_analysis_report(result),
                    )
                )
            )
        text = ("\n\n" + "=" * 60 + "\n\n").join(blocks)
        if merged.diagnostics:
            text += "\n\n" + render(merged, "text")
    elif args.format == "json":
        text = json.dumps(
            {
                "files": [
                    {"file": path, **result.to_dict()}
                    for path, _, _, result, _ in entries
                ],
                "unverified_findings": unverified,
            },
            indent=2,
            sort_keys=True,
        )
    else:
        text = render(merged, "sarif")

    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)
    return EXIT_VIOLATIONS if unverified else EXIT_CLEAN


def _analyze_apply(args: argparse.Namespace, entry, apply_removals) -> int:
    """The ``tels analyze --apply`` round-trip: rewrite, re-lint, re-verify."""
    from repro.lint.diagnostics import (
        EXIT_CLEAN,
        EXIT_VIOLATIONS,
        LintOptions,
    )
    from repro.lint.emitters import render
    from repro.lint.runner import run_lint

    path, network, golden, result, _ = entry
    rewritten, applied = apply_removals(
        network, result.findings, vectors=args.vectors
    )
    if not applied:
        print(f"{path}: no verified removals to apply")
        return EXIT_CLEAN

    # Round-trip gate 1: the rewritten network must re-lint without new
    # errors before anything touches the filesystem.
    post = run_lint(
        rewritten,
        LintOptions(gate_model=args.gate_model),
        source=golden,
        file=path,
    )
    if post.errors:
        print(render(post, "text"), file=sys.stderr)
        print(
            f"analyze: rewritten network fails lint with {post.errors} "
            "error(s); not writing",
            file=sys.stderr,
        )
        return EXIT_VIOLATIONS
    # Round-trip gate 2: packed golden compare against the source Boolean
    # network (for .th inputs, the truth-table mirror of the original).
    if not verify_threshold_network(golden, rewritten, vectors=args.vectors):
        print(
            "analyze: rewritten network is NOT equivalent to the source; "
            "not writing",
            file=sys.stderr,
        )
        return EXIT_VIOLATIONS

    out_path = args.output
    if not out_path:
        out_path = path if path.endswith(".th") else path + ".th"
    write_thblif(rewritten, out_path)
    for finding in applied:
        print(f"applied: {finding.message}")
    print(
        f"wrote {out_path}: {len(applied)} removal(s) applied, "
        f"{network.num_gates} -> {rewritten.num_gates} gates, "
        "equivalence verified"
    )
    return EXIT_CLEAN


def cmd_verilog(args: argparse.Namespace) -> int:
    from repro.io.verilog import threshold_to_verilog

    if args.file.endswith(".th"):
        network = read_thblif(args.file)
    else:
        network, _ = _synthesize(args, read_blif(args.file))
    text = threshold_to_verilog(network)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    from repro.benchgen.extended import all_benchmark_names
    from repro.experiments.extended_suite import format_suite, run_suite

    options = _options(args)
    names = [n for n in all_benchmark_names() if args.full or n != "i10"]
    summary = run_suite(
        names,
        psi=options.psi,
        seed=options.seed,
        jobs=args.jobs,
        backend=options.backend,
        cache_dir=_cache_dir(args),
        gate_model=options.gate_model,
    )
    print(format_suite(summary))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sweep import format_sweep, run_delta_sweep

    options = _options(args)
    points = run_delta_sweep(
        args.benchmarks,
        delta_ons=tuple(args.deltas),
        delta_off=options.delta_off,
        psi=options.psi,
        seed=options.seed,
        jobs=args.jobs,
        cache_dir=_cache_dir(args),
        gate_model=options.gate_model,
    )
    print(format_sweep(points))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.benchgen.extended import build_extended_benchmark

    network = build_extended_benchmark(args.name)
    text = to_blif(network)
    if args.output:
        write_blif(network, args.output)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.table1 import format_table1, run_table1

    options = _options(args)
    names = args.benchmarks or benchmark_names(include_large=not args.small)
    rows = run_table1(names, psi=options.psi, seed=options.seed)
    print(format_table1(rows))
    return 0


def cmd_fig10(args: argparse.Namespace) -> int:
    from repro.experiments.fig10 import format_fig10, run_fig10

    points = run_fig10(args.benchmark, seed=args.seed)
    print(format_fig10(points, args.benchmark))
    return 0


def cmd_fig11(args: argparse.Namespace) -> int:
    from repro.experiments.fig11 import format_fig11, run_fig11

    points = run_fig11(trials=args.trials, seed=args.seed)
    print(format_fig11(points))
    return 0


def cmd_fig12(args: argparse.Namespace) -> int:
    from repro.experiments.fig12 import format_fig12, run_fig12

    points = run_fig12(trials=args.trials, seed=args.seed)
    print(format_fig12(points))
    return 0


def _require_cache_dir(args: argparse.Namespace) -> str | None:
    cache_dir = _cache_dir(args)
    if cache_dir is None:
        print(
            "no cache directory: pass --cache DIR or set TELS_CACHE",
            file=sys.stderr,
        )
    return cache_dir


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache.store import cache_file, open_cache

    cache_dir = _require_cache_dir(args)
    if cache_dir is None:
        return 2

    if args.cache_command == "stats":
        cache = open_cache(cache_dir, read_only=True)
        info = cache.file_stats
        print(f"cache:    {cache_file(cache_dir)}")
        print(f"entries:  {len(cache)}")
        print(f"solved:   {cache.solved_count}")
        print(f"negative: {len(cache) - cache.solved_count}")
        if info.rejected_header:
            print("header:   REJECTED (stale format/version/fingerprint)")
        if info.corrupt_lines:
            print(f"corrupt:  {info.corrupt_lines} lines skipped")
        return 0

    if args.cache_command == "clear":
        cache = open_cache(cache_dir)
        removed = len(cache)
        cache.clear()
        print(f"cleared {removed} entries from {cache_file(cache_dir)}")
        return 0

    # warm: synthesize the named benchmarks against the cache to seed it.
    from repro.benchgen.extended import build_extended_benchmark
    from repro.engine.store import ResultStore

    options = _options(args)
    store = ResultStore.with_cache_dir(cache_dir)
    for name in args.benchmarks:
        source = build_extended_benchmark(name)
        synthesize_with_report(
            prepare_tels(source), options, jobs=args.jobs, store=store
        )
        print(f"warmed {name}: cache now {len(store.persistent)} entries")
    s = store.stats
    print(
        f"warm run: {s.persistent_hits} persistent hits, "
        f"{s.persistent_misses} misses; "
        f"{len(store.persistent)} entries on disk"
    )
    return 0


def _lint_one_file(
    args: argparse.Namespace, path: str, rules: tuple[str, ...] | None
):
    """Lint one ``.th`` file.  Returns ``(LintReport | None, parse_failed)``."""
    from pathlib import Path

    from repro.errors import BlifError
    from repro.lint.diagnostics import LintOptions, LintReport
    from repro.lint.rules import parse_diagnostic
    from repro.lint.runner import run_lint

    try:
        text = Path(path).read_text()
    except OSError as exc:
        print(f"lint: cannot read {path}: {exc}", file=sys.stderr)
        return None, True
    try:
        # validate=False: structural defects (cycles, dangling fanins,
        # undriven outputs) should surface as TLS0xx findings, not as a
        # blanket parse failure.
        network = parse_thblif(
            text, default_name=Path(path).stem, validate=False
        )
    except BlifError as exc:
        # Parse failures are reported through the same diagnostic pipe as
        # lint findings (rule TLP201) so --format json/sarif still applies.
        message = str(exc)
        if exc.line_number is not None:
            prefix = f"line {exc.line_number}: "
            message = message.removeprefix(prefix)
        report = LintReport(
            network_name=Path(path).stem,
            diagnostics=(
                parse_diagnostic(message, file=path, line=exc.line_number),
            ),
            rules_run=("TLP201",),
            file=path,
        )
        return report, True
    options = LintOptions(
        psi=args.psi,
        rules=rules,
        strict=args.strict,
        gate_model=args.gate_model,
        gate_lines=dict(network.gate_lines),
        analysis=args.analysis,
    )
    return run_lint(network, options, file=path), False


def cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.lint.diagnostics import EXIT_USAGE, merge_reports
    from repro.lint.emitters import render
    from repro.lint.rules import registered_rules

    if args.list_rules:
        for rule in registered_rules():
            print(
                f"{rule.rule_id}  {rule.severity.value:7s} "
                f"{rule.category:9s} {rule.name}"
            )
        return 0
    files = _expand_paths(args.files, (".th",))
    if not files:
        print("lint: a FILE argument is required", file=sys.stderr)
        return EXIT_USAGE

    rules = (
        tuple(r for part in args.rules for r in part.split(",") if r)
        if args.rules
        else None
    )
    reports = []
    parse_failed = False
    for path in files:
        report, failed = _lint_one_file(args, path, rules)
        parse_failed |= failed
        if report is not None:
            reports.append(report)
    if not reports:
        return EXIT_USAGE
    merged = merge_reports(reports, name=f"{len(reports)} files")
    text = render(merged, args.format)
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)
    if parse_failed:
        return EXIT_USAGE
    return merged.exit_code(strict=args.strict)


def cmd_serve(args: argparse.Namespace) -> int:
    import logging
    import signal

    from repro.serve.app import ServeApp

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    app = ServeApp(
        host=args.host,
        port=args.port,
        cache_dir=_cache_dir(args),
        journal_dir=args.journal,
        max_workers=args.max_workers,
        queue_limit=args.queue_limit,
        lease_s=args.lease_s,
    )
    # SIGTERM shuts down like Ctrl-C; a daemon started with `&` from a
    # non-interactive shell ignores SIGINT, so TERM is how scripts stop it.
    with contextlib.suppress(ValueError):  # not the main thread
        signal.signal(signal.SIGTERM, signal.default_int_handler)
    # Start the accept loop in its own thread before printing anything:
    # shutdown() then returns even if the signal lands before the HTTP
    # server has entered its loop.  This thread only waits for a signal.
    accept_loop = app.start_background()
    try:
        print(f"tels serve listening on {app.url}")
        if app.manager.journal is not None:
            print(f"jobs journal: {app.manager.journal.path}")
        accept_loop.join()
    except KeyboardInterrupt:
        print("tels serve: shutting down", file=sys.stderr)
    finally:
        app.shutdown()
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    import logging
    import signal
    import threading

    from repro.serve.client import resolve_url
    from repro.serve.worker import run_worker

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    stop = threading.Event()
    with contextlib.suppress(ValueError):  # not the main thread
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
    try:
        done = run_worker(
            resolve_url(args.url),
            worker_id=args.worker_id,
            max_tasks=args.max_tasks,
            stop=stop,
            use_network_cache=not args.no_network_cache,
        )
    except KeyboardInterrupt:
        stop.set()
        print("tels worker: shutting down", file=sys.stderr)
        return 0
    print(f"tels worker: {done} cone(s) completed", file=sys.stderr)
    return 0


def _client(args: argparse.Namespace):
    from repro.serve.client import TelsClient

    return TelsClient(base_url=args.url)


def _api_options(args: argparse.Namespace) -> dict:
    """The synthesis flags as a job-API options dict (None values elided).

    Read off :func:`_options`, so ``tels submit`` forwards exactly what
    ``tels synth`` would run with, restricted to the client-settable fields.
    """
    values = vars(_options(args))
    return {k: values[k] for k in CLIENT_FIELDS if values[k] is not None}


def _print_snapshot(snapshot: dict) -> None:
    print(json.dumps(snapshot, indent=2))


def cmd_submit(args: argparse.Namespace) -> int:
    from pathlib import Path

    client = _client(args)
    blif = Path(args.file).read_text()
    name = args.name or Path(args.file).stem
    snapshot = client.submit(
        blif,
        name=name,
        options=_api_options(args),
        jobs=args.jobs,
        use_cache=not args.no_cache,
    )
    job_id = snapshot["id"]
    if not args.wait:
        print(job_id)
        return 0
    print(f"submitted {job_id} ({name}); waiting", file=sys.stderr)
    final = client.wait(job_id, timeout=args.timeout)
    _print_snapshot(final)
    if final["state"] != "done":
        return 1
    summary = final.get("summary") or {}
    ok = bool(summary.get("verified"))
    lint_clean = summary.get("lint_clean")
    return 0 if ok and lint_clean in (True, None) else 1


def cmd_status_job(args: argparse.Namespace) -> int:
    client = _client(args)
    if args.job_id:
        _print_snapshot(client.status(args.job_id))
    else:
        _print_snapshot({"jobs": client.jobs()})
    return 0


def cmd_result(args: argparse.Namespace) -> int:
    client = _client(args)
    result = client.result(args.job_id, fmt=args.format)
    text = (
        result
        if isinstance(result, str)
        else json.dumps(result, indent=2) + "\n"
    )
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_events(args: argparse.Namespace) -> int:
    client = _client(args)
    for event in client.events(args.job_id, since=args.since):
        print(json.dumps(event, separators=(",", ":")), flush=True)
    return 0


def cmd_cancel(args: argparse.Namespace) -> int:
    client = _client(args)
    _print_snapshot(client.cancel(args.job_id))
    return 0


def cmd_daemon_stats(args: argparse.Namespace) -> int:
    _print_snapshot(_client(args).stats())
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    from repro.experiments.enumeration import (
        PAPER_COUNTS,
        count_positive_unate_threshold,
    )

    result = count_positive_unate_threshold(args.nvars)
    paper = PAPER_COUNTS.get(args.nvars)
    print(
        f"{args.nvars} variables: {result.threshold_classes} threshold / "
        f"{result.positive_unate_classes} positive-unate classes"
        + (f"  (paper: {paper[1]}/{paper[0]})" if paper else "")
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tels",
        description="Threshold logic network synthesis (TELS reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="print network information")
    p.add_argument("file")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("synth", help="TELS threshold synthesis")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write BLIF-TH here")
    p.add_argument(
        "--print-network", action="store_true", help="dump BLIF-TH to stdout"
    )
    _add_option_flags(p)
    _add_run_args(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("map", help="one-to-one threshold mapping")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write BLIF-TH here")
    _add_option_flags(p, ("psi", "delta_on", "delta_off", "backend"))
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("simulate", help="synthesize and verify by simulation")
    p.add_argument("file")
    p.add_argument("--vectors", type=int, default=2048)
    _add_option_flags(p)
    _add_run_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("print-th", help="display a BLIF-TH network")
    p.add_argument("file")
    p.set_defaults(func=cmd_print_th)

    p = sub.add_parser(
        "analyze",
        help="whole-network dataflow analysis: structural stats, interval "
        "and don't-care fixpoints, robustness certificate, verified "
        "removal suggestions (.blif or .th; files or directories)",
    )
    p.add_argument(
        "files",
        nargs="+",
        help="input files or directories (directories expand to their "
        ".th/.blif members)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (sarif aggregates all inputs into one log "
        "with per-file artifact locations)",
    )
    p.add_argument(
        "--apply",
        action="store_true",
        help="apply the verified removals, re-lint and re-verify the "
        "rewritten network against the source (packed golden compare), "
        "and write it out; exits nonzero without writing on any failure",
    )
    p.add_argument(
        "--vectors",
        type=int,
        default=4096,
        help="random vectors for equivalence checks past the exhaustive "
        "limit",
    )
    p.add_argument(
        "-o",
        "--output",
        help="write the report (or with --apply the rewritten network) "
        "here instead of stdout / in place",
    )
    _add_option_flags(p)
    _add_run_args(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "verilog", help="export a threshold network as structural Verilog"
    )
    p.add_argument("file")
    p.add_argument("-o", "--output")
    _add_option_flags(p)
    _add_run_args(p)
    p.set_defaults(func=cmd_verilog)

    p = sub.add_parser("bench", help="emit a benchmark stand-in as BLIF")
    from repro.benchgen.extended import all_benchmark_names

    p.add_argument("name", choices=sorted(all_benchmark_names()))
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "suite", help="run both flows over the full benchmark population"
    )
    p.add_argument("--full", action="store_true", help="include i10")
    _add_option_flags(p, ("psi", "seed", "gate_model", "backend"))
    _add_cache_args(p)
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="benchmark worker processes (0 = all cores)",
    )
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser(
        "sweep",
        help="delta_on sweep over a shared result store (Section VI-C)",
    )
    p.add_argument(
        "--benchmarks", nargs="*", default=["cm152a", "cm85a", "cmb"]
    )
    p.add_argument(
        "--deltas",
        nargs="*",
        type=int,
        default=[0, 1, 2, 3],
        help="delta_on values to sweep",
    )
    _add_option_flags(p, ("delta_off", "psi", "seed", "gate_model"))
    p.add_argument("--jobs", type=int, default=1)
    _add_cache_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("table1", help="regenerate Table I")
    p.add_argument("--benchmarks", nargs="*", help="subset of benchmarks")
    p.add_argument("--small", action="store_true", help="skip i10")
    _add_option_flags(p, ("psi", "seed"))
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("fig10", help="regenerate Fig. 10 (fanin sweep)")
    p.add_argument("--benchmark", default="comp")
    _add_option_flags(p, ("seed",))
    p.set_defaults(func=cmd_fig10)

    p = sub.add_parser("fig11", help="regenerate Fig. 11 (failure rates)")
    p.add_argument("--trials", type=int, default=3)
    _add_option_flags(p, ("seed",))
    p.set_defaults(func=cmd_fig11)

    p = sub.add_parser("fig12", help="regenerate Fig. 12 (robustness/area)")
    p.add_argument("--trials", type=int, default=3)
    _add_option_flags(p, ("seed",))
    p.set_defaults(func=cmd_fig12)

    p = sub.add_parser(
        "cache", help="inspect or manage the persistent synthesis cache"
    )
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
        ("stats", "print cache file statistics"),
        ("clear", "drop every cached entry"),
        ("warm", "seed the cache by synthesizing benchmarks"),
    ):
        cp = cache_sub.add_parser(name, help=help_text)
        _add_cache_args(cp)
        if name == "warm":
            cp.add_argument(
                "benchmarks",
                nargs="*",
                default=["cm152a", "cm85a", "cmb"],
                help="benchmarks to synthesize into the cache",
            )
            _add_option_flags(cp, ("psi", "seed"))
            cp.add_argument("--jobs", type=int, default=1)
        cp.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "lint", help="static verification of BLIF-TH networks"
    )
    p.add_argument(
        "files",
        nargs="*",
        help="BLIF-TH files or directories to lint (directories expand "
        "to their .th members); diagnostics aggregate into one report",
    )
    p.add_argument(
        "--analysis",
        action="store_true",
        help="also run the whole-network dataflow analyses so the "
        "TLA3xx rules can fire (heavier: fixpoints plus packed "
        "equivalence verification)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="diagnostic output format",
    )
    p.add_argument(
        "--rules",
        action="append",
        metavar="IDS",
        help="comma-separated rule ids or prefixes (e.g. TLS001,TLM)",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero on warnings and notes too, not just errors",
    )
    p.add_argument(
        "--psi",
        type=int,
        default=None,
        help="fanin restriction to enforce (default: no fanin rule)",
    )
    _add_option_flags(p, ("gate_model",))
    p.add_argument("-o", "--output", help="write the report here")
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("enumerate", help="Section VI-B function counts")
    p.add_argument("nvars", type=int, choices=range(1, 6))
    p.set_defaults(func=cmd_enumerate)

    def _add_url_arg(client_parser: argparse.ArgumentParser) -> None:
        client_parser.add_argument(
            "--url",
            default=None,
            help="daemon base URL (default: $TELS_SERVE_URL or "
            "http://127.0.0.1:8765)",
        )

    p = sub.add_parser(
        "serve", help="run the synthesis-as-a-service HTTP daemon"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765, help="0 = ephemeral")
    p.add_argument(
        "--max-workers",
        type=int,
        default=2,
        help="concurrent synthesis worker threads",
    )
    p.add_argument(
        "--journal",
        metavar="DIR",
        default=None,
        help="jobs-journal directory: accepted jobs survive a daemon "
        "restart (omit for in-memory jobs only)",
    )
    p.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        help="pending-job bound before submissions get 503",
    )
    p.add_argument(
        "--lease-s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="work-broker lease duration: a worker missing its heartbeat "
        "this long forfeits its cones back to the queue (default 15)",
    )
    p.add_argument("--verbose", action="store_true", help="debug logging")
    _add_cache_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "worker",
        help="run a remote cone-synthesis worker against a serve daemon",
    )
    _add_url_arg(p)
    p.add_argument("--id", default=None, dest="worker_id")
    p.add_argument(
        "--max-tasks", type=int, default=4, help="cones per claim batch"
    )
    p.add_argument(
        "--no-network-cache",
        action="store_true",
        help="solve without the daemon's shared cache tier",
    )
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser(
        "submit", help="submit a BLIF circuit to a running daemon"
    )
    p.add_argument("file")
    p.add_argument("--name", default=None, help="model name (default: stem)")
    _add_url_arg(p)
    p.add_argument(
        "--wait",
        action="store_true",
        help="block until the job is terminal and print its snapshot",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="--wait limit in seconds",
    )
    _add_option_flags(p)
    _add_run_args(p, local=False)
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "status", help="show one job (or all jobs) on the daemon"
    )
    p.add_argument("job_id", nargs="?", default=None)
    _add_url_arg(p)
    p.set_defaults(func=cmd_status_job)

    p = sub.add_parser("result", help="fetch a finished job's result")
    p.add_argument("job_id")
    p.add_argument(
        "--format",
        choices=("json", "thblif", "sarif"),
        default="json",
        help="full report, the synthesized network, or the lint log",
    )
    p.add_argument("-o", "--output", help="write the result here")
    _add_url_arg(p)
    p.set_defaults(func=cmd_result)

    p = sub.add_parser(
        "events", help="stream a job's progress events as NDJSON"
    )
    p.add_argument("job_id")
    p.add_argument(
        "--since", type=int, default=0, help="resume after event N-1"
    )
    _add_url_arg(p)
    p.set_defaults(func=cmd_events)

    p = sub.add_parser("cancel", help="cancel a queued or running job")
    p.add_argument("job_id")
    _add_url_arg(p)
    p.set_defaults(func=cmd_cancel)

    p = sub.add_parser(
        "daemon-stats", help="queue depth and cache hit rates of the daemon"
    )
    _add_url_arg(p)
    p.set_defaults(func=cmd_daemon_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # Malformed input or an unsatisfiable request: a usage-level
        # failure (exit 2), distinct from "ran fine, found violations"
        # (exit 1).  See README for the shared exit-code convention.
        print(f"tels {args.command}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that exited early: not an error.
        # (Must precede the OSError arm — BrokenPipeError subclasses it.)
        import os

        with contextlib.suppress(OSError):
            os.close(sys.stdout.fileno())
        return 0
    except OSError as exc:
        # Unreadable input / unwritable output: same usage-level bucket.
        print(f"tels {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
