"""Command-line interface."""

import argparse
import ast
import re
import shlex
from pathlib import Path

import pytest

from repro import cli
from repro.cli import EXPERIMENTS, build_parser, main, resolve_params
from repro.experiments.report import ExperimentParams


def test_list_prints_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_list_is_machine_parseable(capsys):
    """`eardet list` is a stable contract for scripts: one experiment name
    per line, names matching [a-z0-9-]+, nothing else on stdout."""
    import re

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert out == "".join(line + "\n" for line in lines)  # newline-terminated
    assert lines == list(EXPERIMENTS)
    for line in lines:
        assert re.fullmatch(r"[a-z0-9-]+", line), line


def test_version_flag(capsys):
    from repro.cli import package_version

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert out == f"eardet {package_version()}\n"


def test_package_version_matches_package():
    import repro
    from repro.cli import package_version

    # Uninstalled (PYTHONPATH=src) runs fall back to repro.__version__;
    # installed runs read package metadata. Both must be non-empty and
    # PEP 440-ish (leading digit).
    version = package_version()
    assert version
    assert version[0].isdigit()
    assert version == repro.__version__


def test_run_single_experiment(capsys):
    assert main(["figure1"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out


def test_run_table_experiment_with_preset(capsys):
    assert main(["appendix-a", "--preset", "quick"]) == 0
    assert "Appendix A" in capsys.readouterr().out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["nonsense"])


def test_resolve_params_defaults():
    args = build_parser().parse_args(["figure1"])
    assert resolve_params(args) == ExperimentParams()


def test_resolve_params_preset_and_overrides():
    args = build_parser().parse_args(
        ["figure1", "--preset", "quick", "--scale", "0.5", "--seed", "9"]
    )
    params = resolve_params(args)
    quick = ExperimentParams.quick()
    assert params.scale == 0.5
    assert params.seed == 9
    assert params.repetitions == quick.repetitions
    assert params.attack_flows == quick.attack_flows


def test_every_experiment_is_registered():
    assert set(EXPERIMENTS) == {
        "figure1", "table2", "table3", "tables456", "figure5", "figure6",
        "figure7", "figure8", "appendix-a", "scalability", "ablations",
        "dynamics", "window-models", "mitigation", "robustness",
        "ambiguity", "elasticity",
    }


def test_dataset_override():
    args = build_parser().parse_args(["figure7", "--dataset", "caida"])
    assert resolve_params(args).dataset == "caida"


class TestDetectCommand:
    def _write_trace(self, tmp_path):
        from repro.model.packet import Packet
        from repro.traffic.trace_io import write_csv

        path = tmp_path / "trace.csv"
        packets = [
            Packet(time=i * 2_000_000, size=1518, fid="heavy") for i in range(2000)
        ]
        write_csv(path, packets)
        return path

    def test_detect_on_csv(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        code = main(
            [
                "detect", "--trace", str(path), "--rho", "25000000",
                "--gamma-l", "25000", "--gamma-h", "250000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "heavy" in out
        assert "Large flows detected" in out

    def test_detect_on_pcap(self, tmp_path, capsys):
        from repro.traffic.pcap import write_pcap
        from repro.traffic.wire import build_ipv4_frame

        path = tmp_path / "t.pcap"
        frame = build_ipv4_frame(1, 2, 80, 80, payload=b"z" * 1400)
        write_pcap(path, [(i * 2_000_000, frame) for i in range(2000)])
        code = main(
            [
                "detect", "--trace", str(path), "--rho", "25000000",
                "--gamma-l", "25000", "--gamma-h", "250000", "--host-pair",
            ]
        )
        assert code == 0
        assert "(1, 2)" in capsys.readouterr().out

    def test_detect_requires_flags(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["detect", "--trace", "whatever.csv"])

    def test_detect_rejects_unknown_extension(self, tmp_path):
        path = tmp_path / "t.dat"
        path.write_text("")
        with pytest.raises(SystemExit):
            main(
                [
                    "detect", "--trace", str(path), "--rho", "1000",
                    "--gamma-l", "10", "--gamma-h", "100",
                ]
            )

    def test_detect_quiet_trace(self, tmp_path, capsys):
        from repro.model.packet import Packet
        from repro.traffic.trace_io import write_csv

        path = tmp_path / "quiet.csv"
        write_csv(path, [Packet(time=0, size=100, fid="tiny")])
        main(
            [
                "detect", "--trace", str(path), "--rho", "25000000",
                "--gamma-l", "25000", "--gamma-h", "250000",
            ]
        )
        assert "no flow violated" in capsys.readouterr().out


@pytest.mark.parametrize(
    "verb", [
        ["detect", "--rho", "1000000", "--gamma-l", "10000", "--gamma-h", "100000"],
        ["analyze"],
    ],
    ids=["detect", "analyze"],
)
def test_a_disordered_trace_is_refused_in_one_line(verb, tmp_path):
    """Without ``--validate reorder`` a time-disordered trace exits 1 (a
    ``str`` exit code) with serve's repair hint, not a traceback."""
    path = tmp_path / "disordered.csv"
    path.write_text("time_ns,size,fid\n1000,100,a\n500,100,b\n2000,100,c\n")
    with pytest.raises(SystemExit) as excinfo:
        main([verb[0], "--trace", str(path), *verb[1:]])
    message = excinfo.value.code
    assert isinstance(message, str)
    assert "packet #1 at t=500ns" in message
    assert message.endswith(cli.DISORDER_HINT)


def test_json_output(capsys):
    import json

    assert main(["appendix-a", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "appendix-a" in payload
    rows = payload["appendix-a"][0]["rows"]
    assert ["n", 101, 101] in rows


def test_detect_on_binary_trace(tmp_path, capsys):
    from repro.model.packet import Packet
    from repro.traffic.trace_io import write_binary

    path = tmp_path / "t.ert"
    write_binary(
        path,
        [Packet(time=i * 2_000_000, size=1518, fid=7) for i in range(2000)],
    )
    code = main(
        [
            "detect", "--trace", str(path), "--rho", "25000000",
            "--gamma-l", "25000", "--gamma-h", "250000",
        ]
    )
    assert code == 0
    assert "7" in capsys.readouterr().out


def test_chart_flag_renders_series(capsys):
    assert main(["figure8", "--chart"]) == 0
    out = capsys.readouterr().out
    assert "|" in out and "beta_delta lower bound" in out


def test_simulate_command(capsys):
    code = main(["simulate", "--duration-s", "3", "--victims", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Mitigation simulation" in out
    assert "attacker" in out
    assert "cut off: attacker" in out


def test_simulate_without_policer(capsys):
    code = main(["simulate", "--duration-s", "2", "--no-policer"])
    assert code == 0
    out = capsys.readouterr().out
    assert "policer:" not in out
    assert "cut off" not in out


# ------------------------------------------------- flags belong to verbs

REPO = Path(__file__).resolve().parent.parent


def _verb_parsers():
    """``{verb: subparser}`` of the ``eardet`` parser."""
    parser = build_parser()
    subparsers = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return subparsers.choices


VERBS = _verb_parsers()


def _args_reads(functions, name, seen):
    """Every ``args.<name>`` read in ``name`` and in the module-level
    helpers it calls, transitively."""
    seen.add(name)
    reads = set()
    for node in ast.walk(functions[name]):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "args"
        ):
            reads.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in functions
            and node.func.id not in seen
        ):
            reads |= _args_reads(functions, node.func.id, seen)
    return reads


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_each_verb_accepts_exactly_the_flags_its_handler_reads(verb):
    """A verb's flags are the namespace fields its handler reads — a flag
    it would ignore does not parse.  ``verb`` itself is the top-level
    parser's field, and a positional offering one choice (``checkpoint
    [inspect]``) selects nothing to read."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = {
        node.name: node for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    sub = VERBS[verb]
    handler = sub.get_default("handler").__name__
    dests = {
        action.dest for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        and (action.option_strings or len(action.choices or ()) != 1)
    }
    assert _args_reads(functions, handler, set()) - {"verb"} == dests


def test_worker_help_lists_only_listen(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["worker", "--help"])
    assert excinfo.value.code == 0
    # Option rows start at column 2 ("  -h, --help", "  --listen ...").
    rows = re.findall(
        r"^  (-[\w-]+)(?:, (--[\w-]+))?", capsys.readouterr().out, re.M
    )
    assert {option for row in rows for option in row if option} == {
        "-h", "--help", "--listen",
    }


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_every_verb_has_help(verb, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([verb, "--help"])
    assert excinfo.value.code == 0
    assert f"usage: eardet {verb}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["worker", "--shards", "2"],
        ["list", "--workers", "h:1"],
        ["detectors", "--control"],
        ["--json", "detectors"],  # flags follow the verb
    ],
)
def test_a_flag_its_verb_does_not_read_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["checkpoint", "frobnicate"], ["incidents", "purge"]],
)
def test_an_unknown_sub_action_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


#: Every feature-group sub-flag, a value for it, and its arming flag.
SUB_FLAGS = [
    ("--reorder-window", "8", "--validate"),
    ("--min-packet-size", "60", "--validate"),
    ("--max-packet-size", "1500", "--validate"),
    ("--watcher-counters", "4", "--watcher clef|loft"),
    ("--watcher-depth", "3", "--watcher clef|loft"),
    ("--watcher-fast-period-ms", "1", "--watcher clef|loft"),
    ("--watcher-slow-period-ms", "10", "--watcher clef|loft"),
    ("--watcher-epoch-ms", "5", "--watcher clef|loft"),
    ("--watcher-stages", "2", "--watcher clef|loft"),
    ("--watcher-watchlist", "16", "--watcher clef|loft"),
    ("--watcher-flow-limit", "64", "--watcher clef|loft"),
    ("--watcher-seed", "1", "--watcher clef|loft"),
    ("--forensics-ring-capacity", "100", "--forensics-dir"),
    ("--high-watermark", "0.5", "--overload-policy ladder"),
    ("--low-watermark", "0.1", "--overload-policy ladder"),
    ("--overload-cooldown", "2", "--overload-policy ladder"),
    ("--drain-budget", "8", "--overload-policy ladder"),
    ("--aggregate-window-ms", "5", "--overload-policy ladder"),
    ("--defer-deadline-batches", "2", "--overload-policy ladder"),
    ("--skew-high", "3", "--coordinate"),
    ("--skew-low", "1.1", "--coordinate"),
    ("--reshard-persistence", "2", "--coordinate"),
    ("--reshard-cooldown", "2", "--coordinate"),
    ("--max-shards", "4", "--coordinate"),
    ("--control-every", "4", "--control"),
    ("--control-min-window", "100", "--control"),
    ("--control-persistence", "2", "--control"),
    ("--control-cooldown", "2", "--control"),
    ("--control-widen", "3", "--control"),
    ("--control-max-counters", "64", "--control"),
    ("--slo-drop-budget", "0.01", "--control"),
    ("--max-restarts", "2", "--supervise"),
    ("--heartbeat-timeout", "1", "--supervise"),
]


@pytest.mark.parametrize("flag,value,arming", SUB_FLAGS)
def test_a_sub_flag_without_its_arming_flag_is_refused(
    flag, value, arming, tmp_path
):
    """All seven feature groups follow one rule; the refusal fires before
    the trace is opened or the thresholds are needed."""
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--trace", str(tmp_path / "absent.csv"), flag, value])
    assert excinfo.value.code == f"{flag} requires {arming}"


@pytest.mark.parametrize(
    "kind,flag,value",
    [
        ("clef", "--watcher-counters", "1"),
        ("loft", "--watcher-counters", "0"),
        ("clef", "--watcher-depth", "0"),
        ("loft", "--watcher-stages", "0"),
        ("loft", "--watcher-watchlist", "0"),
        ("loft", "--watcher-flow-limit", "0"),
    ],
)
def test_an_out_of_range_watcher_size_is_refused_in_one_line(
    kind, flag, value, tmp_path
):
    """``WatcherPolicy`` holds each sizing flag to its kind's floor, so
    ``_build`` refuses it before any watcher constructor runs.  (The
    period flags go through ``_ns``, which never yields less than 1 ns.)"""
    with pytest.raises(SystemExit) as excinfo:
        main([
            "serve", "--trace", str(tmp_path / "absent.csv"),
            "--watcher", kind, flag, value,
        ])
    assert excinfo.value.code.startswith(f"bad watcher options: {kind} ")


def _serve_args(*flags):
    return build_parser().parse_args(["serve", *flags])


@pytest.mark.parametrize(
    "group", ["guard", "watcher", "forensics", "overload", "reshard",
              "control", "supervise"],
)
def test_an_armed_group_without_sub_flags_builds_its_default_policy(
    group, tmp_path
):
    """Only the sub-flags actually given reach a policy: armed bare, each
    group's policy is its dataclass default."""
    from repro.control import ControlPolicy
    from repro.forensics import DEFAULT_RING_CAPACITY
    from repro.guard import GuardPolicy
    from repro.service import (
        CoordinatorPolicy,
        OverloadPolicy,
        RestartPolicy,
        WatcherPolicy,
    )

    if group == "guard":
        assert cli._guard_policy(_serve_args("--validate", "strict")) == (
            GuardPolicy()
        )
        assert cli._guard_policy(_serve_args("--validate", "reorder")) == (
            GuardPolicy.reordering(cli.REORDER_WINDOW)
        )
    elif group == "watcher":
        assert cli._watcher_policy(_serve_args("--watcher", "loft")) == (
            WatcherPolicy(kind="loft")
        )
    elif group == "forensics":
        lab = cli._forensics_lab(
            _serve_args("--forensics-dir", str(tmp_path / "lab"))
        )
        try:
            assert lab.capture.ring_capacity == DEFAULT_RING_CAPACITY
        finally:
            lab.close()
    elif group == "overload":
        assert cli._overload_policy(
            _serve_args("--overload-policy", "ladder")
        ) == OverloadPolicy()
    elif group == "reshard":
        assert cli._coordinator_policy(_serve_args("--coordinate")) == (
            CoordinatorPolicy()
        )
    elif group == "control":
        assert cli._control_policy(
            _serve_args("--control", "--gamma-h", "200000")
        ) == ControlPolicy(gamma_h=200000, t_upincb_seconds=1.0)
    else:
        assert cli._supervision(_serve_args("--supervise")) == {
            "policy": RestartPolicy(),
            "heartbeat_timeout_s": None,
        }


def test_given_sub_flags_reach_the_policy():
    policy = cli._overload_policy(
        _serve_args(
            "--overload-policy", "ladder", "--overload-cooldown", "2",
            "--aggregate-window-ms", "0.5",
        )
    )
    assert (policy.cooldown, policy.aggregate_window_ns) == (2, 500_000)
    assert policy.high_watermark == 0.75  # the dataclass default


# --------------------------------------------- documented commands parse

#: Every file whose fenced blocks show ``eardet`` invocations.
DOC_FILES = [
    REPO / "README.md",
    REPO / "EXPERIMENTS.md",
    *sorted((REPO / "docs").glob("*.md")),
    *sorted(REPO.glob(".*/skills/*/SKILL.md")),  # the verify skill's notes
]

_FENCE = re.compile(r"^\s*```[^\n]*\n(.*?)^\s*```", re.M | re.S)
_ASSIGNMENT = re.compile(r"""\b([A-Za-z_]\w*)=("[^"]*"|'[^']*'|[^\s;]*)""")
_FOR_LOOP = re.compile(r"\bfor\s+(\w+)\s+in\s+([^;\n]+);")
_VARIABLE = re.compile(r"\$\{?([A-Za-z_]\w*)\}?")
_OPERATORS = {";", "&&", "||", "|", "&", ">", ">>", "<", "(", ")", ">&"}


def _block_commands(block):
    """The ``eardet`` argument lists of one fenced block: ``\\``
    continuations joined, comments and redirections dropped, shell
    variables expanded from the block's own assignments (a ``for``
    variable takes its first value), ``...`` elisions removed."""
    block = block.replace("\\\n", " ")
    values = {
        name: value.strip("\"'") for name, value in _ASSIGNMENT.findall(block)
    }
    values.update(
        (name, items.split()[0]) for name, items in _FOR_LOOP.findall(block)
    )
    for line in block.splitlines():
        if "eardet" not in line and "repro.cli" not in line:
            continue
        line = _VARIABLE.sub(
            lambda match: values.get(match.group(1), match.group(0)), line
        )
        lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        command = []
        for token in [*lexer, ";"]:
            if token not in _OPERATORS:
                command.append(token)
                continue
            while command and re.fullmatch(r"[A-Za-z_]\w*=.*", command[0]):
                command.pop(0)
            if command[:1] == ["eardet"]:
                yield [word for word in command[1:] if word != "..."]
            elif command[1:3] == ["-m", "repro.cli"]:
                yield [word for word in command[3:] if word != "..."]
            command = []


def _documented_commands(path):
    text = path.read_text(encoding="utf-8")
    for block in _FENCE.findall(text):
        yield from _block_commands(block)


@pytest.mark.parametrize(
    "path", [path for path in DOC_FILES if path.exists()],
    ids=lambda path: str(path.relative_to(REPO)),
)
def test_every_documented_command_parses(path):
    failures = []
    for argv in _documented_commands(path):
        try:
            build_parser().parse_args(argv)
        except SystemExit as stop:
            if stop.code:
                failures.append(" ".join(argv))
    assert failures == []


def test_the_docs_show_commands_of_every_kind():
    """The extractor above finds the documented commands at all."""
    commands = [
        argv for path in DOC_FILES if path.exists()
        for argv in _documented_commands(path)
    ]
    assert len(commands) > 50
    verbs = {argv[0] for argv in commands if argv}
    assert {"serve", "detect", "tune", "replay", "incidents"} <= verbs
