"""Upstream transactions shared by the relaying resolvers.

A resolver that talks to upstream servers matches each response to its
pending work by the 16-bit message id. Handing out ids with a bare
wrapping counter overwrites an id that is still in flight once the
counter comes round: the older client is orphaned, and its timer later
fires against the newer transaction. The forwarder and the recursive
engine both allocate through :func:`allocate_txid` instead.

The id alone does not prove an answer belongs to its transaction: a
late answer for an earlier use of the id, or a forged one, carries it
too. Both resolvers also require the answer to come from the server
they asked and to echo their question (:func:`echoes_question`).
"""

from __future__ import annotations

from repro.dnslib.message import DnsMessage

#: Ids run 1..0xFFFF; 0 is never handed out.
TXID_LIMIT = 0xFFFF


def allocate_txid(in_flight: dict, next_id: int) -> tuple[int | None, int, int]:
    """Pick the first id at or after ``next_id`` that is not in flight.

    Returns ``(txid, next_id, collisions)``: the id to use, or None when
    all :data:`TXID_LIMIT` ids are busy; the cursor for the next call;
    and how many in-flight ids were skipped on the way.
    """
    if len(in_flight) >= TXID_LIMIT:
        return None, next_id, 0
    txid = next_id
    collisions = 0
    while txid in in_flight:
        collisions += 1
        txid = txid % TXID_LIMIT + 1
    return txid, txid % TXID_LIMIT + 1, collisions


def echoes_question(
    response: DnsMessage, qname: str | None, qtype: int | None
) -> bool:
    """Whether ``response`` carries the question that was asked.

    ``qname`` None stands for a query with no question, which only an
    answer with no question echoes.
    """
    if not response.questions:
        return qname is None
    question = response.questions[0]
    return question.qname == qname and question.qtype == qtype
