"""Soak set-up and recovery steps skip only the errors their calls
document: an infeasible chain is skipped, anything else is a bug and
must escape instead of reading as "infeasible"."""

import pytest

from repro.chaos import SoakConfig, run_soak
from repro.cli import main
from repro.controller import GlobalSwitchboard
from repro.federation import (
    CoordinatorNode,
    FederationChaosConfig,
    GlobalCoordinator,
    build_federation_deployment,
)


class Boom(RuntimeError):
    pass


def boom(*_args, **_kwargs):
    raise Boom("unexpected")


def test_unexpected_base_install_error_escapes_the_chaos_deployment(
    monkeypatch,
):
    monkeypatch.setattr(CoordinatorNode, "submit", boom)
    with pytest.raises(Boom):
        build_federation_deployment(
            FederationChaosConfig(pops=8, regions=2, chains=8)
        )


def test_unexpected_base_install_error_escapes_the_scripted_soak(
    monkeypatch, capsys
):
    # Only the first submit -- a base install -- fails, so nothing but
    # the base-install handler stands between the error and the caller.
    original = GlobalCoordinator.submit
    calls = []

    def first_submit_fails(self, chain):
        calls.append(chain.name)
        if len(calls) == 1:
            raise Boom("unexpected")
        return original(self, chain)

    monkeypatch.setattr(GlobalCoordinator, "submit", first_submit_fails)
    with pytest.raises(Boom):
        main([
            "federation", "--pops", "8", "--chains", "12", "--regions", "2",
            "--soak", "2",
        ])


def test_unexpected_extend_error_escapes_site_restore(monkeypatch):
    # Seed 1 at 20 s fails and restores site A with chains affected.
    monkeypatch.setattr(GlobalSwitchboard, "extend_chain", boom)
    with pytest.raises(Boom):
        run_soak(SoakConfig(seed=1, duration_s=20.0))
