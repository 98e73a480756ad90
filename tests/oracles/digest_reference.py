"""JSON-document reference for the ``NetworkModel`` digests.

``NetworkModel`` hashes pre-encoded, cached fragments of this document;
the committed ``model_digest`` values in ``benchmarks/baselines`` pin
the bytes.  These functions build the whole document from the model's
public state and encode it in one ``json.dumps`` call, so tests can
check that the fast digests stay byte-identical to it.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.model import NetworkModel


def _substrate_document(model: NetworkModel) -> dict:
    return {
        "nodes": sorted(model.nodes),
        "latency": sorted((n1, n2, d) for (n1, n2), d in model._latency.items()),
        "sites": sorted((s.name, s.node, s.capacity) for s in model.sites.values()),
        "vnfs": sorted(
            (v.name, v.load_per_unit, sorted(v.site_capacity.items()))
            for v in model.vnfs.values()
        ),
        "links": sorted(
            (link.name, link.src, link.dst, link.bandwidth, link.background)
            for link in model.links.values()
        ),
        "routing": sorted(
            (n1, n2, sorted(fractions.items()))
            for (n1, n2), fractions in model.routing.items()
        ),
        "mlu_limit": model.mlu_limit,
    }


def _chain_structure(model: NetworkModel) -> list:
    return [
        (
            c.name,
            c.ingress,
            c.egress,
            list(c.vnfs),
            [w > 0 for w in c.forward_traffic],
            [v > 0 for v in c.reverse_traffic],
        )
        for c in model.chains.values()
    ]


def _hash(document: dict) -> str:
    payload = json.dumps(document, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def digest_reference(model: NetworkModel, chains=None) -> str:
    names = sorted(model.chains) if chains is None else sorted(set(chains))
    document = _substrate_document(model)
    document["chains"] = [
        (
            c.name,
            c.ingress,
            c.egress,
            list(c.vnfs),
            list(c.forward_traffic),
            list(c.reverse_traffic),
        )
        for c in (model.chains[n] for n in names)
    ]
    return _hash(document)


def substrate_digest_reference(model: NetworkModel) -> str:
    return _hash(_substrate_document(model))


def structure_digest_reference(model: NetworkModel) -> str:
    document = _substrate_document(model)
    document["chain_structure"] = _chain_structure(model)
    return _hash(document)


def capacity_structure_digest_reference(model: NetworkModel) -> str:
    document = _substrate_document(model)
    document["sites"] = sorted(
        (s.name, s.node, s.capacity > 0) for s in model.sites.values()
    )
    document["vnfs"] = sorted(
        (v.name, v.load_per_unit, sorted(v.site_capacity))
        for v in model.vnfs.values()
    )
    document["chain_structure"] = _chain_structure(model)
    return _hash(document)
