"""Address grouping: vault triples, protocol-activity filter, link pairs.

Grouping runs in three stages: (1) union the three addresses of every
Maker vault triple, merging triples that share any address; (2) add every
event-initiating address, as a singleton if unseen; (3) keep as "eligible"
the groups whose members initiated events in two or more protocols.
Link pairs mined from on-behalf repayments and swap destinations are then
applied on top of the eligible family with connected-components
semantics, so the final grouping is invariant under any permutation of
the inputs.  ERC-20 self-approval pairs feed only the comparison harness
(`compare-clusters`), never the grouping.

Eligibility is always derived from a group's protocols, in memory and on
read-back from `partition.csv` alike, so a partition equals its own
checkpoint.  Representatives are the lexicographically smallest member
address; every report keyed by representative is therefore bit-stable
across runs.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .decode import ApprovalEvent, CanonicalEvent, VaultTriple
from .errors import TableError
from .registry import DEBT_REPAY, PROTOCOLS, SWAP
from .tables import Table
from .util import address_cell_error, is_address

_REPAY_SOURCE = {
    "Aave": "AaveRepayOnBehalf",
    "Compound": "CompoundRepayBorrowBehalf",
}


class HeuristicPair(NamedTuple("HeuristicPair", [("r1", str), ("r2", str), ("source", str)])):
    __slots__ = ()

    def __new__(cls, r1: str, r2: str, source: str):
        if r1 == r2:
            raise ValueError("heuristic pair endpoints must differ")
        return super().__new__(cls, r1, r2, source)

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through it
        return cls(*iterable)

    @property
    def unordered(self) -> frozenset[str]:
        return frozenset((self.r1, self.r2))


class DisjointSet:
    """Union-find with path compression and union by rank."""

    def __init__(self):
        self._parent: dict[str, str] = {}
        self._rank: dict[str, int] = {}

    def add(self, item: str) -> None:
        if item not in self._parent:
            self._parent[item] = item
            self._rank[item] = 0

    def __contains__(self, item: str) -> bool:
        return item in self._parent

    def find(self, item: str) -> str:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: str, b: str) -> None:
        self.add(a)
        self.add(b)
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1

    def groups(self) -> list[frozenset[str]]:
        """The member set of each disjoint set."""
        by_root: dict[str, set[str]] = defaultdict(set)
        for item in self._parent:
            by_root[self.find(item)].add(item)
        return [frozenset(members) for members in by_root.values()]


class Partition:
    """Disjoint address groups with per-group protocol activity.

    `addr_to_rep` and `eligible` are derived from the two given fields: a
    group is eligible when its members touched two or more protocols, so
    two partitions are equal when their `groups` and `group_protocols`
    are.  Immutable once built; the ledger and report stages read it
    concurrently without coordination.
    """

    def __init__(
        self,
        groups: dict[str, frozenset[str]],            # representative -> members
        group_protocols: dict[str, frozenset[str]],   # representative -> protocols
    ):
        self.__dict__.update(
            groups=groups,
            group_protocols=group_protocols,
            addr_to_rep={addr: rep for rep, members in groups.items() for addr in members},
            # eligible representatives
            eligible=frozenset(
                rep for rep, protos in group_protocols.items() if len(protos) >= 2
            ),
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return (self.groups, self.group_protocols) == (other.groups, other.group_protocols)

    @classmethod
    def build(
        cls,
        member_sets: Iterable[frozenset[str]],
        activity: Mapping[str, frozenset[str]],
    ) -> "Partition":
        """Groups from member sets; a group's protocols are the union of
        its members' `activity` (address -> protocols it initiated events in)."""
        groups: dict[str, frozenset[str]] = {}
        group_protocols: dict[str, frozenset[str]] = {}
        for members in member_sets:
            if not members:
                continue
            rep = min(members)
            groups[rep] = members
            group_protocols[rep] = frozenset().union(*(activity.get(a, ()) for a in members))
        return cls(groups, group_protocols)

    def eligible_rep_of(self, addr: str) -> str | None:
        rep = self.addr_to_rep.get(addr)
        return rep if rep in self.eligible else None

    def validate(self) -> None:
        seen: set[str] = set()
        for rep, members in self.groups.items():
            if rep != min(members):
                raise ValueError(f"representative {rep} is not the smallest member")
            overlap = seen & members
            if overlap:
                raise ValueError(f"groups overlap on {sorted(overlap)[:3]}")
            seen |= members
        for addr, rep in self.addr_to_rep.items():
            if addr not in self.groups[rep]:
                raise ValueError(f"index points {addr} at a group that lacks it")
        if len(self.addr_to_rep) != len(seen):
            raise ValueError("membership index does not cover all grouped addresses")


def extract_heuristic_pairs(
    events: Sequence[CanonicalEvent],
    denylist: frozenset[str] = frozenset(),
) -> list[HeuristicPair]:
    """Mine (actor, beneficiary) link pairs from the event stream.

    On-behalf repayments on Aave and Compound and swap destinations on
    Uniswap each yield a pair when the two sides differ; pairs touching a
    deny-listed (exchange/labeled) address are dropped.  Pairs are
    deduplicated: union is idempotent.
    """
    out = []
    seen: set[tuple[str, str, str]] = set()
    for e in events:
        if e.on_behalf_of is None:
            continue
        if e.kind == DEBT_REPAY:
            source = _REPAY_SOURCE.get(e.protocol)
            if source is None:
                continue
        elif e.kind == SWAP:
            source = "UniswapSwapRecipient"
        else:
            continue
        if e.actor in denylist or e.on_behalf_of in denylist:
            continue
        key = (e.actor, e.on_behalf_of, source)
        if key not in seen:
            seen.add(key)
            out.append(HeuristicPair(e.actor, e.on_behalf_of, source))
    return out


def self_approval_pairs(
    approvals: Sequence[ApprovalEvent],
    denylist: frozenset[str] = frozenset(),
    known_contracts: frozenset[str] = frozenset(),
) -> list[HeuristicPair]:
    """(owner, spender) pairs under the self-authorization assumption.

    Comparison harness only, not part of the main grouping pipeline.
    Spenders that are known contracts or labeled addresses are excluded:
    they are not user wallets.
    """
    out = []
    seen: set[tuple[str, str]] = set()
    for a in approvals:
        if a.owner == a.spender:
            continue
        if a.spender in denylist or a.spender in known_contracts:
            continue
        key = (a.owner, a.spender)
        if key not in seen:
            seen.add(key)
            out.append(HeuristicPair(a.owner, a.spender, "Erc20SelfApproval"))
    return out


def address_protocol_map(events: Sequence[CanonicalEvent]) -> dict[str, frozenset[str]]:
    """Each actor -> the protocols it initiated events in, actors in the
    order they first act."""
    protos: dict[str, set[str]] = defaultdict(set)
    for e in events:
        protos[e.actor].add(e.protocol)
    return {addr: frozenset(p) for addr, p in protos.items()}


def group_addresses(
    triples: Sequence[VaultTriple],
    activity: Mapping[str, frozenset[str]],
) -> Partition:
    """Stages 1-3: vault-triple grouping, actor insertion, eligibility.

    Triples sharing any address merge transitively; every actor (a key of
    `activity`, the `address_protocol_map` of the events) joins its
    existing group or becomes a singleton; a group is eligible when its
    members initiated events in more than one protocol.
    """
    dsu = DisjointSet()
    for t in triples:
        addrs = sorted(t.addresses)
        for addr in addrs:
            dsu.add(addr)
        for left, right in zip(addrs, addrs[1:]):
            dsu.union(left, right)
    for actor in activity:
        dsu.add(actor)
    return Partition.build(dsu.groups(), activity)


def apply_heuristic_pairs(
    partition: Partition,
    pairs: Sequence[HeuristicPair],
    activity: Mapping[str, frozenset[str]],
) -> Partition:
    """Extend/merge the eligible family with link pairs.

    Connected-components semantics over (eligible groups + pair edges):
    a pair merges the eligible groups it bridges and absorbs addresses
    that connect, transitively, to at least one eligible group.  An
    absorbed address leaves the rest of its former (non-eligible) group
    behind.  Components that touch no eligible group leave the partition
    unchanged.

    `activity` is the per-address protocol map the partition was built
    from (`address_protocol_map` of the same events).  A merged group
    contains an eligible group and a leftover group is part of a
    non-eligible one, so the eligibility derived from it never promotes
    or drops a group through absorption alone.
    """
    scratch = DisjointSet()
    for rep in partition.eligible:
        members = sorted(partition.groups[rep])
        for addr in members:
            scratch.add(addr)
        for left, right in zip(members, members[1:]):
            scratch.union(left, right)
    for pair in pairs:
        scratch.union(pair.r1, pair.r2)

    moved: set[str] = set()
    final_sets: list[frozenset[str]] = []
    for component in scratch.groups():
        touches_eligible = any(
            partition.addr_to_rep.get(addr) in partition.eligible for addr in component
        )
        if not touches_eligible:
            continue
        final_sets.append(component)
        moved |= component

    # whatever was not pulled into an eligible component stays put
    for rep, members in partition.groups.items():
        if rep in partition.eligible:
            continue
        remaining = members - moved
        if remaining:
            final_sets.append(frozenset(remaining))

    result = Partition.build(final_sets, activity)
    result.validate()
    return result


def _denylisted(address: str, label: str) -> str:
    """A deny-list address, `0x` and 40 hex digits in either case, lowercased."""
    lowered = address.lower()
    if address[:2] != "0x" or not is_address(lowered):
        raise ValueError(f"invalid address {address!r}: expected 0x and 40 hex digits")
    return lowered


DENYLIST = Table(("address", "label"), from_row=_denylisted)
PARTITION = Table(("representative", "member", "protocols_touched"))
write_comparison_csv = Table(("metric", "value")).write


def load_denylist(path: str | Path) -> frozenset[str]:
    """Deny-list CSV: columns address,label; a bad address names its line."""
    return frozenset(DENYLIST.read(path))


def write_partition_csv(path: str | Path, partition: Partition) -> None:
    PARTITION.write(path, (
        (rep, member, ";".join(sorted(partition.group_protocols[rep])))
        for rep in sorted(partition.groups)
        for member in sorted(partition.groups[rep])
    ))


def read_partition_csv(path: str | Path) -> Partition:
    """`write_partition_csv`'s file back.  A cell that is not an address, a
    protocol outside `registry.PROTOCOLS`, a `protocols_touched` cell in a
    form the writer never writes (its protocols sorted, each once, joined
    by `;`), a member listed twice, a member smaller than its
    representative, or rows of one group that disagree on
    `protocols_touched` name their line; a representative that is not a
    member of its own group names the file."""
    members: dict[str, set[str]] = defaultdict(set)
    protos: dict[str, frozenset[str]] = {}
    rep_of: dict[str, str] = {}

    def row(rep: str, member: str, touched: str) -> None:
        if not (is_address(rep) and is_address(member)):
            raise address_cell_error(representative=rep, member=member)
        if member in rep_of:
            raise ValueError(f"member {member} listed under {rep_of[member]} and {rep}")
        if member < rep:
            raise ValueError(f"member {member} is smaller than its representative {rep}")
        protocols = frozenset(p for p in touched.split(";") if p)
        if not protocols.issubset(PROTOCOLS):
            raise ValueError(f"unknown protocol {min(protocols.difference(PROTOCOLS))!r}")
        if ";".join(sorted(protocols)) != touched:
            raise ValueError(f"protocols_touched {touched!r} is not its protocols sorted, "
                             "each once, joined by ';'")
        if protos.setdefault(rep, protocols) != protocols:
            raise ValueError(f"group {rep} has two different protocols_touched")
        rep_of[member] = rep
        members[rep].add(member)

    Table(PARTITION.columns, from_row=row).read(path)
    for rep, group in members.items():
        if rep not in group:
            raise TableError(path, f"representative {rep} is not a member of its group")
    return Partition({rep: frozenset(m) for rep, m in members.items()}, protos)
