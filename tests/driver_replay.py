"""The decomposition driver's nodes against the full coreps they stand for.

``corep.decompose`` reads its input once into a node (``corep._node_of``):
the torus weights and the terms of the four non-torus generator grades.
Each node recurses on one quotient by an image (``corep._quotient_by_image``),
so the nodes of one call form a chain.  ``replayed_nodes`` records every
chain while a function runs, replays each node quotient with the public
``quotient_corep`` on the full corep, and asserts that every driver node
is the node read off its replayed full corep.  Tests that need the full
coreps (``hom_space``, the comodule axioms) take them from here.
"""

from unittest import mock

from slq2 import corep
from slq2.corep import Corep, quotient_corep
from slq2.cyclo import CyclotomicScalar


node_of = corep._node_of  # the driver's own reader of a full corep


def recorded_chains(run) -> list[tuple[Corep, list[list]]]:
    """Run ``run()`` and return, per ``corep.decompose`` call, its input
    and its chain: [node, the rows of the node's quotient or None]."""
    calls: list[tuple[Corep, list[list]]] = []
    decompose, node_step, quotient = corep.decompose, corep._decompose_node, corep._quotient_by_image

    def recording_decompose(c):
        calls.append((c, []))
        return decompose(c)

    def recording_node(node):
        calls[-1][1].append([node, None])
        return node_step(node)

    def recording_quotient(node, rows):
        calls[-1][1][-1][1] = rows
        return quotient(node, rows)

    with mock.patch.object(corep, "decompose", recording_decompose), mock.patch.object(
        corep, "_decompose_node", recording_node
    ), mock.patch.object(corep, "_quotient_by_image", recording_quotient):
        run()
    return calls


def replay(calls) -> list[tuple[corep._Node, Corep]]:
    """Each recorded node with its full corep: the input, then
    ``quotient_corep`` of the previous full corep by the rows the driver
    quotiented by.  AssertionError at the first node that is not the node
    of its full corep."""
    pairs = []
    for c, chain in calls:
        full = c
        for node, rows in chain:
            assert node == node_of(full), f"the driver's node differs from that of {full.family}"
            pairs.append((node, full))
            if rows is not None:
                zero = CyclotomicScalar.zero(c.ell)
                full = quotient_corep(full, [[row.get(j, zero) for j in range(full.dim)] for row in rows])
    return pairs


def replayed_nodes(run) -> list[tuple[corep._Node, Corep]]:
    """Every node ``corep.decompose`` reaches while ``run()`` runs, with the
    full corep it stands for, checked by ``replay``."""
    return replay(recorded_chains(run))
