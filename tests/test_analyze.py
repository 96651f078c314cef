"""Tests for the whole-program analyzer (``tools.analyze``).

Every rule/pass gets a firing fixture module and a silent one; the
baseline workflow, the CLI artifacts, and the real tree's cleanliness
are covered at the end.  Fixture trees mimic the ``src/repro`` layout
because the flow, cell-locality and snapshot passes are scope-sensitive.
"""

import json
import pathlib
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from tools.analyze import (  # noqa: E402
    DETERMINISM_RULES,
    baseline_key,
    build_model,
    load_baseline,
    partition,
    render_dot,
    run_flow_pass,
    run_locality_pass,
    run_snapshot_pass,
    write_baseline,
)
from tools.analyze.__main__ import main as analyze_main  # noqa: E402
from tools.check.engine import check_paths, iter_python_files  # noqa: E402


def write(tmp_path, relpath, source):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return str(path)


def codes(findings):
    return [f.code for f in findings]


#: A minimal protocol tree: base class, messages, one scheme.
_BASE = """
    class MSS:
        def _send(self, dst, payload):
            pass

        def _broadcast(self, payload, dsts=None):
            pass
"""

_MESSAGES = """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class Ping:
        sender: int
        channel: int
        note: str = ""

        def to_dict(self):
            return {"sender": self.sender}

    @dataclass(frozen=True)
    class Pong:
        sender: int
"""


def flow_findings(tmp_path, scheme_source):
    write(tmp_path, "src/repro/protocols/base.py", _BASE)
    write(tmp_path, "src/repro/protocols/messages.py", _MESSAGES)
    write(tmp_path, "src/repro/protocols/scheme.py", scheme_source)
    files = list(iter_python_files([str(tmp_path / "src")]))
    return run_flow_pass(build_model(files))


# ------------------------------------------------------------------ ANA101 ----
def test_ana101_fires_on_sent_but_unhandled(tmp_path):
    findings = flow_findings(
        tmp_path,
        """
        from .base import MSS
        from .messages import Ping

        class LonelyMSS(MSS):
            def poke(self):
                self._send(1, Ping(0, 5))
        """,
    )
    assert codes(findings) == ["ANA101"]
    assert "_on_Ping" in findings[0].message


def test_ana101_silent_when_handler_exists(tmp_path):
    findings = flow_findings(
        tmp_path,
        """
        from .base import MSS
        from .messages import Ping

        class PairedMSS(MSS):
            def poke(self):
                self._send(1, Ping(0, 5))

            def _on_Ping(self, msg):
                return msg.channel
        """,
    )
    assert findings == []


# ------------------------------------------------------------------ ANA102 ----
def test_ana102_fires_on_handler_never_sent(tmp_path):
    findings = flow_findings(
        tmp_path,
        """
        from .base import MSS

        class DeafMSS(MSS):
            def _on_Pong(self, msg):
                return msg.sender
        """,
    )
    assert codes(findings) == ["ANA102"]


def test_ana102_silent_when_ancestor_sends(tmp_path):
    findings = flow_findings(
        tmp_path,
        """
        from .base import MSS
        from .messages import Pong

        class ParentMSS(MSS):
            def reply(self):
                self._send(0, Pong(1))

            def _on_Pong(self, msg):
                pass

        class ChildMSS(ParentMSS):
            def _on_Pong(self, msg):
                return msg.sender
        """,
    )
    assert findings == []


# ------------------------------------------------------------------ ANA103 ----
def test_ana103_fires_on_misfielded_access(tmp_path):
    findings = flow_findings(
        tmp_path,
        """
        from .base import MSS
        from .messages import Ping

        class TypoMSS(MSS):
            def poke(self):
                self._send(1, Ping(0, 5))

            def _on_Ping(self, msg):
                return msg.chanel  # typo'd field
        """,
    )
    assert codes(findings) == ["ANA103"]
    assert "chanel" in findings[0].message


def test_ana103_tolerates_fields_methods_and_annotated_helpers(tmp_path):
    findings = flow_findings(
        tmp_path,
        """
        from .base import MSS
        from .messages import Ping

        class FineMSS(MSS):
            def poke(self):
                self._send(1, Ping(0, 5))

            def _on_Ping(self, msg):
                self._log(msg)
                return msg.channel

            def _log(self, msg: Ping):
                return msg.to_dict(), msg.note
        """,
    )
    assert findings == []


def test_ana103_fires_inside_annotated_helper(tmp_path):
    findings = flow_findings(
        tmp_path,
        """
        from .base import MSS
        from .messages import Ping

        class HelperMSS(MSS):
            def poke(self):
                self._send(1, Ping(0, 5))

            def _on_Ping(self, msg):
                self._log(msg)

            def _log(self, msg: Ping):
                return msg.payload  # Ping has no payload
        """,
    )
    assert codes(findings) == ["ANA103"]


# ------------------------------------------------------------------ ANA104 ----
def test_ana104_fires_on_missing_required_field(tmp_path):
    findings = flow_findings(
        tmp_path,
        """
        from .base import MSS
        from .messages import Ping

        class ShortMSS(MSS):
            def poke(self):
                self._send(1, Ping(0))

            def _on_Ping(self, msg):
                pass
        """,
    )
    assert codes(findings) == ["ANA104"]
    assert "channel" in findings[0].message


def test_ana104_fires_on_unknown_keyword_and_duplicate(tmp_path):
    findings = flow_findings(
        tmp_path,
        """
        from .base import MSS
        from .messages import Ping

        class KwMSS(MSS):
            def poke(self):
                self._send(1, Ping(0, 5, color="red"))
                self._send(1, Ping(0, 5, sender=2))

            def _on_Ping(self, msg):
                pass
        """,
    )
    assert codes(findings) == ["ANA104", "ANA104"]


def test_ana104_silent_on_star_args_and_defaults(tmp_path):
    findings = flow_findings(
        tmp_path,
        """
        from .base import MSS
        from .messages import Ping

        class StarMSS(MSS):
            def poke(self, args, kw):
                self._send(1, Ping(*args))
                self._send(1, Ping(0, 5, note="hi"))
                self._send(1, Ping(channel=5, sender=0))

            def _on_Ping(self, msg):
                pass
        """,
    )
    assert findings == []


# ------------------------------------------------------------------ ANA201 ----
def locality_findings(tmp_path, relpath, source):
    path = write(tmp_path, relpath, source)
    return run_locality_pass([path])


def test_ana201_fires_on_cross_cell_access(tmp_path):
    findings = locality_findings(
        tmp_path,
        "src/repro/protocols/leaky.py",
        """
        class LeakyMSS:
            def peek(self, j):
                return self.network.node(j).use  # cross-cell state leak

            def poke(self, j):
                self.network._nodes[j].use.add(1)
        """,
    )
    assert codes(findings) == ["ANA201", "ANA201"]


def test_ana201_silent_in_allowlisted_files(tmp_path):
    findings = locality_findings(
        tmp_path,
        "src/repro/sim/network.py",
        """
        class Network:
            def _deliver(self, msg):
                self._nodes[msg.dst].on_message(msg)
        """,
    )
    assert findings == []


# ------------------------------------------------------------------ SIM006 ----
def det_findings(tmp_path, source, relpath="src/repro/protocols/x.py"):
    path = write(tmp_path, relpath, source)
    return check_paths([path], rules=DETERMINISM_RULES)


def test_sim006_fires_on_dict_iteration_fanout(tmp_path):
    findings = det_findings(
        tmp_path,
        """
        class X:
            def fan_out(self, verdicts):
                for j, verdict in verdicts.items():
                    self._send(j, verdict)
        """,
    )
    assert codes(findings) == ["SIM006"]


def test_sim006_silent_on_sorted_or_effect_free_iteration(tmp_path):
    findings = det_findings(
        tmp_path,
        """
        class X:
            def fan_out(self, verdicts):
                for j in sorted(verdicts):
                    self._send(j, verdicts[j])

            def tally(self, verdicts):
                total = 0
                for j, verdict in verdicts.items():
                    total += verdict
                return total
        """,
    )
    assert findings == []


# ------------------------------------------------------------------ SIM007 ----
def test_sim007_fires_on_identity_ordering(tmp_path):
    findings = det_findings(
        tmp_path,
        """
        def pick(items):
            items.sort(key=id)
            return min(items, key=lambda x: hash(x))
        """,
    )
    assert codes(findings) == ["SIM007", "SIM007"]


def test_sim007_silent_on_domain_keys(tmp_path):
    findings = det_findings(
        tmp_path,
        """
        def pick(items):
            return sorted(items, key=lambda x: x.cell)
        """,
    )
    assert findings == []


# ------------------------------------------------------------------ SIM008 ----
def test_sim008_fires_on_popitem(tmp_path):
    findings = det_findings(tmp_path, "def f(d):\n    return d.popitem()\n")
    assert codes(findings) == ["SIM008"]


def test_sim008_silent_on_explicit_pop(tmp_path):
    findings = det_findings(tmp_path, "def f(d):\n    return d.pop(min(d))\n")
    assert findings == []


# ------------------------------------------------------------------ SIM009 ----
def test_sim009_fires_on_env_reads(tmp_path):
    findings = det_findings(
        tmp_path,
        """
        import os

        def f():
            if os.getenv("FAST"):
                return 1
            return os.environ["MODE"]
        """,
    )
    assert codes(findings) == ["SIM009", "SIM009"]


def test_sim009_silent_outside_sim_scope(tmp_path):
    findings = det_findings(
        tmp_path,
        "import os\n\ndef f():\n    return os.getenv('FAST')\n",
        relpath="src/repro/harness/runner.py",
    )
    assert findings == []


# ---------------------------------------------------------------- baseline ----
def test_baseline_roundtrip_and_partition(tmp_path):
    findings = det_findings(
        tmp_path,
        """
        class X:
            def fan_out(self, verdicts):
                for j in verdicts.keys():
                    self._send(j, 1)
        """,
    )
    assert len(findings) == 1
    baseline_file = tmp_path / "baseline.json"
    write_baseline(findings, str(baseline_file))
    baseline = load_baseline(str(baseline_file))
    assert baseline == {baseline_key(findings[0])}
    new, accepted, stale = partition(findings, baseline)
    assert (new, accepted, stale) == ([], findings, [])
    # An empty run leaves the baseline entry stale.
    new, accepted, stale = partition([], baseline)
    assert new == [] and accepted == [] and stale == sorted(baseline)


def test_baseline_keys_are_line_insensitive(tmp_path):
    fired = det_findings(
        tmp_path,
        """
        class X:
            def fan_out(self, verdicts):
                for j in verdicts.keys():
                    self._send(j, 1)
        """,
    )
    shifted = det_findings(
        tmp_path,
        """
        # a comment pushing everything down


        class X:
            def fan_out(self, verdicts):
                for j in verdicts.keys():
                    self._send(j, 1)
        """,
        relpath="src/repro/protocols/x.py",
    )
    assert fired[0].line != shifted[0].line
    assert baseline_key(fired[0]) == baseline_key(shifted[0])


# --------------------------------------------------------------------- CLI ----
def test_cli_end_to_end(tmp_path, capsys):
    write(tmp_path, "src/repro/protocols/base.py", _BASE)
    write(tmp_path, "src/repro/protocols/messages.py", _MESSAGES)
    write(
        tmp_path,
        "src/repro/protocols/scheme.py",
        """
        from .base import MSS
        from .messages import Ping

        class LonelyMSS(MSS):
            def poke(self):
                self._send(1, Ping(0, 5))
        """,
    )
    tree = str(tmp_path / "src")
    baseline = str(tmp_path / "baseline.json")
    dot = tmp_path / "flow.dot"
    report = tmp_path / "snapshot.json"

    # Unbaselined finding: exit 1, JSON output carries the shared schema.
    rc = analyze_main(
        [tree, "--baseline", baseline, "--format", "json",
         "--dot", str(dot), "--snapshot-report", str(report)]
    )
    assert rc == 1
    out = json.loads(capsys.readouterr().out)
    assert [f["code"] for f in out["new"]] == ["ANA101"]
    assert out["new"][0]["url"] == "docs/CHECKS.md#ana101"
    assert "LonelyMSS" in dot.read_text()
    assert json.loads(report.read_text())["verdict"] == "safe"

    # Accept it, then the same run is clean.
    assert analyze_main([tree, "--baseline", baseline, "--write-baseline"]) == 0
    capsys.readouterr()
    assert analyze_main([tree, "--baseline", baseline]) == 0

    # Missing path: exit 2.
    assert analyze_main([str(tmp_path / "nope")]) == 2


def test_list_passes(capsys):
    assert analyze_main(["--list-passes"]) == 0
    out = capsys.readouterr().out
    for token in ("flow", "locality", "snapshot", "determinism", "SIM006", "SIM009"):
        assert token in out


# ------------------------------------------------------------------ ANA3xx ----
def snapshot_findings(tmp_path, relpath, source):
    path = write(tmp_path, relpath, source)
    findings, report = run_snapshot_pass([path])
    return findings, report


def test_ana301_fires_on_unregistered_randomness(tmp_path):
    findings, report = snapshot_findings(
        tmp_path,
        "src/repro/faults/sloppy.py",
        """
        import random
        import numpy as np
        from numpy.random import default_rng

        def jitter():
            return random.random() + np.random.rand()

        def fresh():
            return default_rng(7).random()
        """,
    )
    assert codes(findings) == ["ANA301", "ANA301", "ANA301"]
    assert report["verdict"] == "unsafe"


def test_ana301_fires_on_from_random_import(tmp_path):
    findings, _ = snapshot_findings(
        tmp_path,
        "src/repro/traffic/sloppy.py",
        """
        from random import expovariate
        """,
    )
    assert codes(findings) == ["ANA301"]


def test_ana301_silent_in_allowlisted_files(tmp_path):
    # The registry itself and the adaptive tie-breaker are the
    # sanctioned generator factories (captured by the state codec).
    for relpath in ("src/repro/sim/rng.py", "src/repro/core/adaptive.py"):
        findings, report = snapshot_findings(
            tmp_path,
            relpath,
            """
            import numpy as np

            def make(seed):
                return np.random.default_rng(seed)
            """,
        )
        assert findings == []
        assert report["verdict"] == "safe"


def test_ana302_and_ana303_fire_in_snapshot_scope(tmp_path):
    findings, report = snapshot_findings(
        tmp_path,
        "src/repro/metrics/sloppy.py",
        """
        TALLIES = {}

        class Collector:
            shared = []
        """,
    )
    assert codes(findings) == ["ANA302", "ANA303"]
    assert report["verdict"] == "unsafe"


def test_ana302_and_ana303_cover_protocols_core_and_sim(tmp_path):
    for relpath in (
        "src/repro/protocols/sloppy.py",
        "src/repro/core/sloppy.py",
        "src/repro/sim/sloppy.py",
    ):
        findings, _ = snapshot_findings(
            tmp_path,
            relpath,
            """
            TALLIES = {}

            class Collector:
                shared = []
            """,
        )
        assert codes(findings) == ["ANA302", "ANA303"], relpath


def test_ana303_fires_on_mutable_class_attribute(tmp_path):
    findings, _ = snapshot_findings(
        tmp_path,
        "src/repro/protocols/shared.py",
        """
        class SharedMSS:
            registry = {}
            peers: list = []
            _private: dict = {}
        """,
    )
    assert codes(findings) == ["ANA303", "ANA303", "ANA303"]


def test_ana303_silent_on_instance_state_and_immutables(tmp_path):
    findings, _ = snapshot_findings(
        tmp_path,
        "src/repro/protocols/clean.py",
        """
        class CleanMSS:
            MODES = ("local", "borrow")
            LIMIT = 3
            __slots__ = ["cell"]

            def __init__(self):
                self.registry = {}
        """,
    )
    assert findings == []


def test_ana302_fires_on_mutable_module_global(tmp_path):
    findings, _ = snapshot_findings(
        tmp_path,
        "src/repro/core/globals.py",
        """
        ACTIVE_CELLS = set()
        _SEEN = {}
        __all__ = ["ACTIVE_CELLS"]
        """,
    )
    assert codes(findings) == ["ANA302", "ANA302"]


def test_ana302_silent_outside_snapshot_scope(tmp_path):
    findings, _ = snapshot_findings(
        tmp_path,
        "src/repro/harness/registry.py",
        "CACHE = {}\n",
    )
    assert findings == []


def test_ana302_and_ana303_skip_the_policy_registry(tmp_path):
    findings, report = snapshot_findings(
        tmp_path,
        "src/repro/policies/base.py",
        "_REGISTRY = {}\n",
    )
    assert findings == []
    assert report["state_allowlist"] == ["src/repro/policies/base.py"]


def test_snapshot_pass_ignores_out_of_scope_and_read_only_tables(tmp_path):
    findings, report = snapshot_findings(
        tmp_path,
        "src/repro/obs/tidy.py",
        """
        from types import MappingProxyType

        _TABLE = MappingProxyType({"a": 1})
        FROZEN = frozenset({1, 2})
        """,
    )
    assert findings == []
    out_of_scope = write(
        tmp_path, "tools/bench_helper.py", "import random\n"
    )
    findings, report = run_snapshot_pass([out_of_scope])
    assert findings == []
    assert report["files_scanned"] == 0


# ------------------------------------------------------------- real tree ----
def test_real_tree_has_no_unbaselined_findings(capsys):
    assert analyze_main(["src/repro"]) == 0


def test_real_tree_dot_covers_all_schemes(tmp_path):
    files = list(iter_python_files(["src/repro"]))
    dot = render_dot(build_model(files))
    for scheme in (
        "AdaptiveMSS",
        "AdvancedUpdateMSS",
        "BasicSearchMSS",
        "BasicUpdateMSS",
        "FixedMSS",
        "PrakashMSS",
    ):
        assert f'"{scheme}"' in dot
