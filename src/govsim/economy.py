"""Token accounting: pools, taxes, weighted distribution, staking, slashing,
cross-node settlement, and the incentive-compatibility brute-force checker.

All arithmetic is Decimal cents with round-half-up and an explicit
residual-to-highest-weight rule, so the published flow tables reproduce
exactly. Conservation holds across every operation: value only moves between
accounts, stakes, and escrows.
"""
from __future__ import annotations

from decimal import Decimal
from typing import Mapping, NamedTuple

from .errors import InsufficientFunds, InvalidTransition, NotFound, ValidationError
from .ledger import AuditLedger, RecordKind
from .money import ZERO, fmt, nxc, round2

JUDICIAL_FUND = "JudicialFund"
INFRA_FUND = "InfraFund"
ECOSYSTEM_FUND = "EcosystemFund"


class TokenAccount:
    __slots__ = ("owner", "balance", "stake_locked")

    def __init__(self, owner: str) -> None:
        self.owner, self.balance, self.stake_locked = owner, ZERO, ZERO


class RewardPool:
    """A funded pool; `distribute` sets its `escrow_state` to `Distributed`."""

    __slots__ = ("mission_id", "total", "protocol_tax", "infra_tax", "net", "escrow_state")

    def __init__(self, mission_id: str, total: Decimal, protocol_tax: Decimal, infra_tax: Decimal, net: Decimal) -> None:
        self.mission_id, self.total, self.protocol_tax, self.infra_tax, self.net = (
            mission_id, total, protocol_tax, infra_tax, net
        )
        self.escrow_state = "Funded"


def split_pool(total, protocol_rate, infra_rate) -> tuple[Decimal, Decimal, Decimal]:
    """(protocol_tax, infra_tax, net). Taxes round to cents half-up; the net
    keeps the exact remainder so the three parts always sum to the total."""
    total = nxc(total)
    p = Decimal(str(protocol_rate))
    i = Decimal(str(infra_rate))
    if p < 0 or i < 0 or p >= 1 or i >= 1 or p + i >= 1:
        raise ValidationError(f"rates ({p}, {i}) must lie in [0,1) and sum below 1")
    if total <= 0:
        raise ValidationError("pool total must be positive")
    protocol_tax = round2(total * p)
    infra_tax = round2(total * i)
    return protocol_tax, infra_tax, total - protocol_tax - infra_tax


def weighted_shares(net: Decimal, weights: Mapping[str, Decimal]) -> tuple[tuple[str, Decimal], ...]:
    """Pure distribution arithmetic: `(did, share)` pairs sorted by did, each
    share rounded half-up, with the residual assigned to the highest-weight
    did (ties break on the lower did string), so the shares sum to `net`."""
    cleaned: dict[str, Decimal] = {}
    for did in sorted(weights):
        w = Decimal(str(weights[did]))
        if w < 0:
            raise ValidationError(f"negative weight for {did}")
        cleaned[did] = w
    total_weight = sum(cleaned.values())
    if not cleaned or total_weight == 0:
        raise ValidationError("at least one weight must be positive")
    entries = {
        did: round2(net * w / total_weight) for did, w in cleaned.items()
    }
    residual = net - sum(entries.values())
    if residual != 0:
        heaviest = max(cleaned.values())
        top = min(d for d, w in cleaned.items() if w == heaviest)
        entries[top] += residual
    return tuple(sorted(entries.items()))


class Treasury:
    """Account book for one run. Owned by the event loop."""

    def __init__(self, ledger: AuditLedger) -> None:
        self._ledger = ledger
        self._accounts: dict[str, TokenAccount] = {}
        self._pools: dict[str, RewardPool] = {}
        for fund in (JUDICIAL_FUND, INFRA_FUND, ECOSYSTEM_FUND):
            self._accounts[fund] = TokenAccount(fund)

    # -- plumbing -----------------------------------------------------------

    def account(self, owner: str) -> TokenAccount:
        try:
            return self._accounts[owner]
        except KeyError:
            raise NotFound(f"unknown account {owner}") from None

    def open_account(self, owner: str, *, balance="0", stake="0") -> TokenAccount:
        acct = self._accounts.setdefault(owner, TokenAccount(owner))
        acct.balance += nxc(balance)
        acct.stake_locked += nxc(stake)
        return acct

    def pool(self, mission_id: str) -> RewardPool:
        return self._pools[mission_id]

    def total_value(self) -> Decimal:
        return sum(
            (a.balance + a.stake_locked for a in self._accounts.values()), ZERO
        ) + sum((p.net for p in self._pools.values() if p.escrow_state == "Funded"), ZERO)

    def _move(self, src: str, dst: str, amount: Decimal, memo: str, mission_id: str) -> None:
        if amount < 0:
            raise ValidationError(f"negative transfer {amount}")
        source = self.account(src)
        if source.balance < amount:
            raise InsufficientFunds(f"{src} holds {source.balance}, needs {amount}")
        source.balance -= amount
        self.open_account(dst).balance += amount
        self._ledger.append(
            RecordKind.TOKEN_TRANSFER,
            "treasury",
            {"from": src, "to": dst, "amount": fmt(amount), "memo": memo, "mission_id": mission_id},
        )

    def transfer(self, src: str, dst: str, amount, *, mission_id: str, memo="") -> Decimal:
        amount = nxc(amount)
        self._move(src, dst, amount, memo, mission_id)
        return amount

    # -- pool lifecycle -----------------------------------------------------

    def fund_pool(
        self, mission_id: str, sponsor: str, total, protocol_rate, infra_rate
    ) -> RewardPool:
        if mission_id in self._pools:
            raise InvalidTransition(f"pool for {mission_id} already funded")
        protocol_tax, infra_tax, net = split_pool(total, protocol_rate, infra_rate)
        self._move(sponsor, JUDICIAL_FUND, protocol_tax, "protocol tax", mission_id)
        self._move(sponsor, INFRA_FUND, infra_tax, "infrastructure tax", mission_id)
        source = self.account(sponsor)
        if source.balance < net:
            raise InsufficientFunds(f"{sponsor} cannot escrow {net}")
        source.balance -= net
        pool = RewardPool(
            mission_id=mission_id,
            total=nxc(total),
            protocol_tax=protocol_tax,
            infra_tax=infra_tax,
            net=net,
        )
        self._pools[mission_id] = pool
        self._ledger.append(
            RecordKind.TOKEN_TRANSFER,
            "treasury",
            {
                "from": sponsor,
                "to": f"escrow:{mission_id}",
                "amount": fmt(net),
                "memo": "reward pool escrow",
                "mission_id": mission_id,
            },
        )
        return pool

    def distribute(self, mission_id: str, weights: Mapping[str, Decimal]) -> tuple[tuple[str, Decimal], ...]:
        """Pay the pool's net out by weight; returns the `weighted_shares` paid."""
        pool = self._pools.get(mission_id)
        if pool is None:
            raise NotFound(f"no pool for {mission_id}")
        if pool.escrow_state != "Funded":
            raise InvalidTransition(f"pool for {mission_id} already distributed")
        shares = weighted_shares(pool.net, weights)
        pool.escrow_state = "Distributed"
        for did, amount in shares:
            self.open_account(did).balance += amount
            self._ledger.append(
                RecordKind.TOKEN_TRANSFER,
                "treasury",
                {
                    "from": f"escrow:{mission_id}",
                    "to": did,
                    "amount": fmt(amount),
                    "memo": "performance-weighted reward",
                    "mission_id": mission_id,
                },
            )
        return shares

    # -- sanctions and settlement ------------------------------------------

    def slash(self, did: str, fraction, reason: str, *, mission_id: str) -> Decimal:
        fraction = Decimal(str(fraction))
        if fraction < 0 or fraction > 1:
            raise ValidationError(f"slash fraction {fraction} outside [0,1]")
        acct = self.account(did)
        amount = min(round2(acct.stake_locked * fraction), acct.stake_locked)
        if fraction == 0 or amount == 0:
            return ZERO
        acct.stake_locked -= amount
        self.account(JUDICIAL_FUND).balance += amount
        self._ledger.append(
            RecordKind.SLASHING_EVENT,
            "adjudication",
            {
                "did": did,
                "fraction": str(fraction),
                "amount": fmt(amount),
                "reason": reason,
                "mission_id": mission_id,
            },
        )
        return amount

    def settle_cross_node(
        self,
        payer: str,
        provider: str,
        offer_amount,
        cross_tax_rate,
        *,
        mission_id: str,
        memo="cross-node service fee",
    ) -> tuple[Decimal, Decimal]:
        amount = nxc(offer_amount)
        if amount <= 0:
            raise ValidationError(f"offer amount {amount} must be positive")
        rate = Decimal(str(cross_tax_rate))
        if rate < 0 or rate >= 1:
            raise ValidationError(f"cross-node tax rate {rate} outside [0,1)")
        tax = round2(amount * rate)
        self._move(payer, provider, amount, memo, mission_id)
        if tax > 0:
            self._move(payer, INFRA_FUND, tax, "cross-node protocol tax", mission_id)
        return amount, tax


# -- incentive compatibility ------------------------------------------------


class IncentiveParams(NamedTuple):
    """Reward/slash/detection schedules over a deviation grid d ∈ [0, d_max].

    reward and slash map each grid point to NXC; detection maps it to a
    probability. The grid must contain 0 (the honest point) and S(0) = 0.
    """

    reward: tuple[tuple[Decimal, Decimal], ...]
    slash: tuple[tuple[Decimal, Decimal], ...]
    detection: tuple[tuple[Decimal, Decimal], ...]

    @staticmethod
    def from_tables(
        reward: Mapping, slash: Mapping, detection: Mapping | None = None
    ) -> "IncentiveParams":
        def norm(table: Mapping) -> tuple[tuple[Decimal, Decimal], ...]:
            return tuple(
                sorted((Decimal(str(k)), Decimal(str(v))) for k, v in table.items())
            )

        r = norm(reward)
        s = norm(slash)
        p = norm(detection) if detection is not None else tuple(
            (d, Decimal(1)) for d, _ in r
        )
        return IncentiveParams(reward=r, slash=s, detection=p)


class IncentiveResult(NamedTuple):
    holds: bool
    violations: tuple[Decimal, ...]


def check_incentive_compatibility(params: IncentiveParams) -> IncentiveResult:
    """Brute force over every grid point d > 0: flag d whenever
    p(d)·S(d) ≤ R(d) − R(0). Holds iff no point is flagged (strict margin)."""
    grid = [d for d, _ in params.reward]
    if not grid:
        raise ValidationError("empty deviation grid")
    if grid[0] != 0:
        raise ValidationError("grid must contain the honest point d = 0")
    slash = dict(params.slash)
    detection = dict(params.detection)
    for name, table in (("slash", slash), ("detection", detection)):
        missing = [d for d in grid if d not in table]
        if missing:
            raise ValidationError(f"{name} undefined at grid points {missing}")
    if slash[Decimal(0)] != 0:
        raise ValidationError("S(0) must be 0")
    prev_p = None
    for d in grid:
        p = detection[d]
        if p < 0 or p > 1:
            raise ValidationError(f"detection prob {p} at d={d} outside [0,1]")
        if prev_p is not None and p < prev_p:
            raise ValidationError("detection prob must be non-decreasing in d")
        prev_p = p
    honest_reward = dict(params.reward)[Decimal(0)]
    violations = []
    for d, r in params.reward:
        if d == 0:
            continue
        gain = r - honest_reward
        expected_penalty = detection[d] * slash[d]
        if expected_penalty <= gain:
            violations.append(d)
    return IncentiveResult(holds=not violations, violations=tuple(violations))
