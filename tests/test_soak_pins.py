"""Cross-commit pins for every soak report.

The soak tests elsewhere compare two runs of the same code, which
catches nondeterminism but not a refactor that changes what a soak
does.  These sha256 values of the deterministic report documents were
taken before the soak drivers and lease loops were folded onto shared
code; a change that moves one of them changed soak behaviour, and the
fix belongs in the code, not in this table.

The reports are independent of ``PYTHONHASHSEED`` (the CI hash-seed
smoke step checks the federated chaos soak under two seeds).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.chaos import SoakConfig, run_soak
from repro.cli import main
from repro.federation import FederationChaosConfig, run_federation_chaos

CHAOS_SOAK_20S = {
    1: "d07f0498985573cb4a448c23262644b8d4835d24507189ecf8715cf61cfb7f9f",
    2: "fd9692fc659719fc2425b655c0b309e01bdf3393ad8cc66a89f7f43627fdf1f8",
    3: "b9e3f105ddee87a4f265c2340a1327faf62a9738875a5b7fddfe1c4361bcfd13",
    4: "9caf42d9c79b80d0e3c09fd64d90d39170e5cb2f6a94b551e87904023dd184e1",
    5: "55bea2151761e8b17681100b105d0aac6b7f288a6952f11c8c5ba556bc91138e",
}

CONTROL_FAULT_SOAK_20S = {
    1: "95b0a04341f693d542ee93b9efb946574343c7d4442c1a5c4580ca9c20b6a2b0",
    2: "c2a29f0fbefb720c417f43999bdb173d0dc5e847dd252e91933324f4f83c1f91",
}

FEDERATED_CHAOS_SOAK = {
    1: "1c401aae826721b3f4719a79a774a09edbc423b01c2936ed6d6b3ca3d13792e6",
    2: "e159e0f4778238b675ebeea7940ef57ed981636fd4c0bc2e4ef2dcb60217d35f",
    3: "8d073129e308785c01ae27b862e25c8b644829ec1c68e8fc20eab5f5ee175434",
    4: "eed383c1e40b47493fe0c5cc7a48415ffce1485a6eff13383a7a0388cd3e5f49",
    5: "3872316f275d6d74b1044f1c35dbda464ed27052f798c6ea7af2dc863c996a5c",
}

#: ``python -m repro federation --soak`` with the CI smoke arguments;
#: the report minus its wall-clock ``metrics`` key.
SCRIPTED_SOAK_ARGS = [
    "federation", "--pops", "24", "--chains", "96", "--regions", "3",
    "--seed", "7", "--soak", "40", "--reject-rate", "0.25",
    "--crash-rate", "0.25", "--json",
]
SCRIPTED_SOAK = (
    "94814e8bbfc88f843e64edd24eb744d6b13ad61e78950d78cb65fcabc3fe54bd"
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(CHAOS_SOAK_20S))
def test_chaos_soak_report_is_pinned(seed):
    report = run_soak(SoakConfig(seed=seed, duration_s=20.0))
    assert sha256(report.to_json()) == CHAOS_SOAK_20S[seed]


@pytest.mark.parametrize("seed", sorted(CONTROL_FAULT_SOAK_20S))
def test_control_fault_soak_report_is_pinned(seed):
    report = run_soak(
        SoakConfig(seed=seed, duration_s=20.0, control_faults=True)
    )
    assert sha256(report.to_json()) == CONTROL_FAULT_SOAK_20S[seed]


@pytest.mark.parametrize("seed", sorted(FEDERATED_CHAOS_SOAK))
def test_federated_chaos_soak_report_is_pinned(seed):
    report = run_federation_chaos(FederationChaosConfig(seed=seed))
    assert sha256(report.to_json()) == FEDERATED_CHAOS_SOAK[seed]


def test_scripted_federation_soak_report_is_pinned(tmp_path, capsys):
    out = tmp_path / "federation-report.json"
    assert main([*SCRIPTED_SOAK_ARGS, "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    del doc["metrics"]
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert sha256(canonical) == SCRIPTED_SOAK
