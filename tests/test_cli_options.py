"""The option table in ringflow.cli: each command's options, their config
file names, and the checks made before any computation."""

import errno
from pathlib import Path

import pytest

from ringflow import cli
from ringflow.state import read_state_csv

# every option of every command, in --help's order
OPTION_STRINGS = {
    "eigen": ["--alpha", "--alpha-over-pi", "--beta", "--n", "--outdir", "--config"],
    "extrapolate": ["--alpha", "--alpha-over-pi", "--beta", "--schedule", "--reference-schedule",
                    "--outdir", "--config"],
    "sweep": ["--beta", "--alpha-over-pi-min", "--alpha-over-pi-max", "--steps", "--schedule",
              "--outdir", "--config", "--jobs"],
    "infimum": ["--alpha-over-pi-min", "--alpha-over-pi-max", "--beta-max", "--budget",
                "--outdir", "--config", "--jobs"],
    "twomode": ["--m1", "--m2", "--global", "--alpha-over-pi-min", "--alpha-over-pi-max",
                "--steps", "--outdir", "--config"],
    "state": ["--alpha", "--alpha-over-pi", "--beta", "--n", "--outdir", "--config"],
    "current": ["--state-file", "--theta", "--tau-min", "--tau-max", "--samples", "--outdir",
                "--config"],
    "linelimit": ["--u-max", "--n-points", "--ring-route", "--alpha", "--alpha-over-pi", "--beta",
                  "--n", "--outdir", "--config"],
    "verify": ["--outdir", "--config"],
}

# a value for each option type, as given on the command line and as parsed
SAMPLES = {float: ("0.25", 0.25), int: ("3", 3), Path: ("given", Path("given")),
           cli._schedule_arg: ("50,60,70,80", [50, 60, 70, 80])}


def run(args):
    return cli.main(args)


def settled(argv):
    """The options main would pass to argv's command, parsed and settled, no solve."""
    parser = cli.build_parser(argv[0])
    args = parser.parse_args(argv)
    if "config" in args:
        args = cli._parse_with_config(parser, args, argv)
    cli._settle(args)
    return {key: value for key, value in vars(args).items() if key != "config"}


def test_each_commands_option_strings():
    parser = cli.build_parser()
    for name, sub in parser.commands.items():
        actions = [a for a in sub._actions if a.dest != "help"]
        assert [s for a in actions for s in a.option_strings] == OPTION_STRINGS[name], name
        dests = [a.dest for a in actions]
        assert dests == [("global_opt" if s == "--global" else s[2:].replace("-", "_"))
                         for s in OPTION_STRINGS[name]], name
    assert list(parser.commands) == list(OPTION_STRINGS)


CASES = [(name, flag) for name, flags in OPTION_STRINGS.items() for flag in flags
         if flag != "--config"]


@pytest.mark.parametrize("name, flag", CASES, ids=[f"{n}{f}" for n, f in CASES])
def test_flag_and_config_settle_alike(tmp_path, monkeypatch, name, flag):
    # the option from its flag, and from the config file under its name and
    # under its dest, gives one settled namespace
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("RINGFLOW_JOBS", "1")
    options = {f: (dest, opt) for f, dest, opt in cli._options(name)}
    dest, opt = options[flag]
    base = [name]
    for other, (_, spec) in options.items():
        if other != flag and spec.default is cli._REQUIRED:
            base += [other, SAMPLES[spec.type][0]]
    if opt.route:
        base.append(next(f for f, (d, _) in options.items() if d == cli._COMMANDS[name][2]))
    raw, value = ("true", True) if opt.type is bool else SAMPLES[opt.type]
    from_flag = settled(base + ([flag] if opt.type is bool else [flag, raw]))
    assert from_flag[dest] == value
    for key in (flag[2:], dest):
        (tmp_path / "run.cfg").write_text(f"{key} = {raw}\n")
        assert settled(base + ["--config", "run.cfg"]) == from_flag, key


class TestOutdir:
    # a cheap valid run of each command that writes
    WRITERS = {
        "eigen": ["eigen", "--alpha", "1", "--n", "5"],
        "extrapolate": ["extrapolate", "--alpha", "1", "--schedule", "50,60,70,80"],
        "sweep": ["sweep", "--alpha-over-pi-min", "1", "--alpha-over-pi-max", "1", "--steps", "1",
                  "--schedule", "50,60,70,80"],
        "infimum": ["infimum", "--alpha-over-pi-min", "0.3", "--alpha-over-pi-max", "0.5",
                    "--budget", "3"],
        "twomode": ["twomode", "--steps", "3"],
        "state": ["state", "--alpha", "1", "--n", "5"],
        "current": ["current", "--state-file", "state.csv"],
        "linelimit": ["linelimit", "--n-points", "50"],
    }

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_not_a_directory_exits_2_first(self, tmp_path, monkeypatch, capsys, name, under):
        # checked before the command computes anything or reads its inputs
        monkeypatch.chdir(tmp_path)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        outdir = afile / "sub" if under else afile
        assert run(self.WRITERS[name] + ["--outdir", str(outdir)]) == 2
        assert capsys.readouterr().err == f"error: --outdir {outdir}: {afile} is not a directory\n"
        assert afile.read_text() == "kept\n"

    def test_no_solve_runs(self, tmp_path, monkeypatch, capsys):
        def failing(kernel):
            raise AssertionError("solved")

        monkeypatch.setattr(cli, "min_eigen", failing)
        (tmp_path / "afile").write_text("")
        assert run(self.WRITERS["eigen"] + ["--outdir", str(tmp_path / "afile")]) == 2

    def test_verify_writes_nothing_so_takes_any(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        assert run(["verify", "--outdir", str(tmp_path / "afile")]) == 0


class TestUnreadableInputs:
    def test_config_directory(self, tmp_path, capsys):
        argv = ["eigen", "--alpha", "1", "--n", "5", "--config", str(tmp_path)]
        assert run(argv + ["--outdir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: config file {tmp_path} cannot be read: Is a directory\n"
        assert not (tmp_path / "out").exists()

    def test_missing_config(self, tmp_path, capsys):
        argv = ["eigen", "--alpha", "1", "--n", "5", "--config", str(tmp_path / "none.cfg")]
        assert run(argv + ["--outdir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: config file {tmp_path / 'none.cfg'} cannot be read: "
                       "No such file or directory\n")

    def test_state_file_directory(self, tmp_path, capsys):
        argv = ["current", "--state-file", str(tmp_path), "--outdir", str(tmp_path / "out")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: state file {tmp_path} cannot be read: Is a directory\n"
        assert not (tmp_path / "out").exists()
        with pytest.raises(ValueError, match="state file .* cannot be read: Is a directory"):
            read_state_csv(tmp_path)

    @pytest.mark.parametrize("line", ["n", "foo"])
    def test_config_line_without_equals(self, tmp_path, capsys, line):
        # a key = value line with an unknown key is still ignored
        config = tmp_path / "run.cfg"
        config.write_text(f"# a comment\nbogus = 1\n{line}\n")
        argv = ["eigen", "--alpha", "1", "--n", "5", "--config", str(config)]
        assert run(argv + ["--outdir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: config file {config} line 3: {line!r} is not key = value\n"
        assert not (tmp_path / "out").exists()

    def test_write_failure_stays_exit_1(self, tmp_path, monkeypatch, capsys):
        def full(path, content):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "_write_json", full)
        assert run(["eigen", "--alpha", "1", "--n", "5", "--outdir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("computation failed: ")


@pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
def test_schedule_message(tmp_path, capsys, from_config):
    (tmp_path / "run.cfg").write_text("schedule = 1.5,2,3,4\n")
    given = ["--config", str(tmp_path / "run.cfg")] if from_config else ["--schedule", "1.5,2,3,4"]
    assert run(["extrapolate", "--alpha", "1", *given, "--outdir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "ringflow extrapolate: error: argument --schedule: a schedule is integers separated "
        "by commas or spaces, got '1.5,2,3,4'")
