"""The ad server: turns pageviews into delivered impressions.

Orchestrates the vendor-side pipeline for every pageview: geo resolution
(via the network's own IP database), the network's proprietary invalid-
traffic prefilter, budget pacing, targeting, the auction, and the exposure
model.  Emits :class:`DeliveredImpression` ground-truth records; what the
*advertiser* gets to see of them is decided later by
:mod:`repro.adnetwork.reporting` and, independently, by the beacon pipeline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.adnetwork.auction import Auction
from repro.adnetwork.billing import BillingLedger
from repro.adnetwork.campaign import CampaignSpec
from repro.adnetwork.inventory import ExternalDemand, make_request
from repro.adnetwork.matching import MatchDecision, MatchEngine
from repro.adnetwork.pacing import BudgetPacer
from repro.adnetwork.viewability import Exposure, ExposureModel
from repro.geo.ipdb import GeoIpDatabase
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.web.browsing import Pageview
from repro.web.publisher import Publisher


@dataclass(frozen=True)
class DeliveredImpression:
    """Ground truth for one ad actually rendered on a page.

    This record belongs to the *simulation*, not to any observer: the
    vendor report projects one (lossy) view of it, the beacon dataset
    another.  The audit's job is to compare those two projections.
    """

    impression_id: int
    campaign: CampaignSpec
    pageview: Pageview
    exposure: Exposure
    match: MatchDecision
    clearing_cpm: float

    @property
    def price_eur(self) -> float:
        """What the advertiser was charged for this impression."""
        return self.clearing_cpm / 1000.0

    @property
    def publisher_domain(self) -> str:
        return self.pageview.publisher.domain


class _PlanEntry:
    """One campaign's standing on one placement (see ``AdServer._plan_for``).

    Everything here is fixed for the server's lifetime.  The contextual
    verdict is filled in the first time a pageview needs it: most entries
    belong to campaigns whose flight is not running.
    """

    __slots__ = ("campaign", "start_unix", "end_unix", "cap", "contextual")

    def __init__(self, campaign: CampaignSpec, cap: Optional[int]) -> None:
        self.campaign = campaign
        self.start_unix = campaign.start_unix
        self.end_unix = campaign.end_unix
        self.cap = cap
        self.contextual: Optional[bool] = None


@dataclass(frozen=True)
class NetworkPolicy:
    """The vendor's (non-disclosed) operating policies.

    ``ivt_prefilter_rate`` is the share of invalid traffic the network's
    proprietary detection stops *before* the auction; the remainder is
    served and charged.  ``default_frequency_cap`` is None — the paper's
    finding (iv): AdWords applies no cap unless the advertiser sets one.
    """

    ivt_prefilter_rate: float = 0.35
    default_frequency_cap: Optional[int] = None
    #: Run-of-network expansion: broad eligibility ramps from the base rate
    #: toward the max rate as a campaign falls behind its budget schedule —
    #: but only to the extent its *matched* inventory is scarce.  Campaigns
    #: whose keyword/audience supply reaches ``matched_supply_ref`` of
    #: traffic never expand (Football); campaigns with almost no matched
    #: inventory (Research) are effectively run-of-network.
    broad_base_rate: float = 0.01
    broad_max_rate: float = 0.9
    matched_supply_ref: float = 0.08
    min_supply_samples: int = 200

    def __post_init__(self) -> None:
        if not 0.0 <= self.ivt_prefilter_rate <= 1.0:
            raise ValueError("ivt_prefilter_rate must be within [0, 1]")
        if self.default_frequency_cap is not None and self.default_frequency_cap < 1:
            raise ValueError("default_frequency_cap must be >= 1 when set")
        if not 0.0 <= self.broad_base_rate <= self.broad_max_rate <= 1.0:
            raise ValueError("need 0 <= broad_base_rate <= broad_max_rate <= 1")
        if not 0.0 < self.matched_supply_ref <= 1.0:
            raise ValueError("matched_supply_ref must be within (0, 1]")
        if self.min_supply_samples < 1:
            raise ValueError("min_supply_samples must be positive")


class AdServer:
    """Vendor-side delivery engine for a set of campaigns."""

    def __init__(self, campaigns: list[CampaignSpec], matcher: MatchEngine,
                 external: ExternalDemand, ipdb: GeoIpDatabase,
                 policy: NetworkPolicy | None = None,
                 exposure_model: ExposureModel | None = None,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None) -> None:
        #: Fixed for the server's lifetime (and ``CampaignSpec`` is
        #: frozen), which is what keeps the eligibility plans valid.
        self.campaigns = tuple(campaigns)
        self.matcher = matcher
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.auction = Auction(external, metrics=self.metrics,
                               tracer=self.tracer)
        self.ipdb = ipdb
        self.policy = policy or NetworkPolicy()
        self.exposure_model = exposure_model or ExposureModel()
        self.pacer = BudgetPacer(self.campaigns, metrics=self.metrics,
                                 tracer=self.tracer)
        self.billing = BillingLedger(metrics=self.metrics,
                                     tracer=self.tracer)
        self._next_impression_id = 1
        #: (resolved country, publisher domain, is_anonymous) → the
        #: eligibility plan for that placement; see :meth:`_plan_for`.
        self._plans: dict[tuple[str, str, bool], tuple[_PlanEntry, ...]] = {}
        self._frequency: dict[tuple[str, str, str], int] = {}
        self._supply_matched = {campaign.campaign_id: 0
                                for campaign in self.campaigns}
        self._supply_examined = dict(self._supply_matched)
        self.prefiltered_pageviews = 0
        self.impressions: list[DeliveredImpression] = []
        self._pageviews_seen = self.metrics.counter(
            "adserver.pageviews", help="pageviews offered to the ad server")
        self._prefiltered = self.metrics.counter(
            "adserver.prefiltered",
            help="bot pageviews stopped by the IVT prefilter")
        self._deliveries = self.metrics.counter(
            "adserver.deliveries", help="impressions delivered and charged")

    # ------------------------------------------------------------------ #

    def resolve_country(self, pageview: Pageview) -> str:
        """The network's geo call for a visitor (IP database first)."""
        country = self.ipdb.country_of(pageview.ip)
        return country if country is not None else pageview.country

    def _effective_cap(self, campaign: CampaignSpec) -> Optional[int]:
        if campaign.frequency_cap is not None:
            return campaign.frequency_cap
        return self.policy.default_frequency_cap

    def _plan_for(self, country: str,
                  publisher: Publisher) -> tuple[_PlanEntry, ...]:
        """The eligibility plan for a placement, built on first use.

        In campaign order, every campaign that targets *country* and does
        not exclude *publisher*, with its effective frequency cap and
        (once needed) its contextual verdict.  None of these depend on
        the pageview's time or visitor, so only the flight window and the
        cap count are left to check per pageview.
        """
        key = (country, publisher.domain, publisher.is_anonymous)
        plan = self._plans.get(key)
        if plan is None:
            plan = tuple(
                _PlanEntry(campaign, self._effective_cap(campaign))
                for campaign in self.campaigns
                if campaign.targets_country(country)
                and not campaign.excludes_publisher(publisher.domain,
                                                    publisher.is_anonymous))
            self._plans[key] = plan
        return plan

    def _count_delivery(self, campaign: CampaignSpec, pageview: Pageview) -> None:
        key = (campaign.campaign_id, pageview.ip, pageview.user_agent)
        self._frequency[key] = self._frequency.get(key, 0) + 1

    def matched_supply(self, campaign_id: str) -> float:
        """Estimated fraction of traffic the campaign matches (C or B).

        Optimistic (= full reference supply) until enough pageviews have
        been examined to trust the estimate.
        """
        examined = self._supply_examined.get(campaign_id, 0)
        if examined < self.policy.min_supply_samples:
            return self.policy.matched_supply_ref
        return self._supply_matched.get(campaign_id, 0) / examined

    def broad_rate(self, campaign: CampaignSpec, now: float) -> float:
        """Run-of-network expansion pressure for *campaign* at *now*.

        Two factors multiply: *schedule pressure* (how far behind its
        budget delivery is) and *matched scarcity* (how short of the
        reference level the campaign's matched inventory runs).  A
        Football campaign with plentiful matched supply never expands, so
        its vendor report stays near-100 % contextual; a Research campaign
        with ~2 % matched supply is effectively run-of-network — exactly
        the two regimes Table 2 shows.
        """
        policy = self.policy
        base = policy.broad_base_rate
        expected = campaign.daily_budget_eur * (
            (now - campaign.start_unix) / 86_400.0)
        if expected <= 0.0:
            return base
        # Spend and supply are never negative, so neither factor exceeds
        # 1; a factor at or below 0 leaves the base rate.
        spent = self.pacer.total_spend.get(campaign.campaign_id, 0.0)
        pressure = (expected - spent) / expected
        if pressure <= 0.0:
            return base
        supply = self.matched_supply(campaign.campaign_id)
        scarcity = 1.0 - supply / policy.matched_supply_ref
        if scarcity <= 0.0:
            return base
        return base + pressure * scarcity * (policy.broad_max_rate - base)

    # ------------------------------------------------------------------ #

    def serve(self, pageview: Pageview,
              rng: random.Random) -> Optional[DeliveredImpression]:
        """Process one pageview; returns the impression if *we* won it.

        The invalid-traffic prefilter models the network's proprietary
        behavioural bot detection: it stops a configured fraction of bot
        pageviews outright.  The bots that slip through are served and
        charged like humans — producing Table 4's data-center impressions.
        """
        self._pageviews_seen.inc()
        if pageview.is_bot and rng.random() < self.policy.ivt_prefilter_rate:
            self.prefiltered_pageviews += 1
            self._prefiltered.inc()
            return None
        now = pageview.timestamp
        country = self.resolve_country(pageview)
        publisher = pageview.publisher
        candidates: list[CampaignSpec] = []
        decisions: dict[str, MatchDecision] = {}
        # Same campaigns, same order and same draws as checking every
        # campaign's flight, geo, exclusions and cap in turn.
        for entry in self._plan_for(country, publisher):
            if not entry.start_unix <= now < entry.end_unix:
                continue
            campaign = entry.campaign
            campaign_id = campaign.campaign_id
            if entry.cap is not None and self._frequency.get(
                    (campaign_id, pageview.ip, pageview.user_agent),
                    0) >= entry.cap:
                continue
            contextual = entry.contextual
            if contextual is None:
                contextual = entry.contextual = \
                    self.matcher.contextual_match(campaign, publisher)
            decision = self.matcher.settle(
                contextual, campaign, pageview.interests, rng,
                self.broad_rate(campaign, now))
            self._supply_examined[campaign_id] += 1
            if decision.claimed_contextual:
                self._supply_matched[campaign_id] += 1
            if not decision.eligible:
                continue
            if not self.pacer.may_bid(campaign, now, rng):
                continue
            candidates.append(campaign)
            decisions[campaign_id] = decision
        if not candidates:
            return None
        request = make_request(
            pageview, price_level=self.auction.external.price_level(country))
        outcome = self.auction.run(request, candidates, rng)
        if outcome.winner is None:
            return None
        campaign = outcome.winner
        exposure = self.exposure_model.sample(pageview, rng)
        impression = DeliveredImpression(
            impression_id=self._next_impression_id,
            campaign=campaign,
            pageview=pageview,
            exposure=exposure,
            match=decisions[campaign.campaign_id],
            clearing_cpm=outcome.clearing_cpm,
        )
        self._next_impression_id += 1
        self.tracer.set_impression(impression.impression_id,
                                   campaign.campaign_id)
        self.tracer.event(
            "creative.serve", at=now,
            campaign=campaign.campaign_id, creative=campaign.creative_id,
            publisher=pageview.publisher.domain, country=country,
            reason=impression.match.reason.value,
            clearing_cpm=outcome.clearing_cpm)
        self.pacer.record_spend(campaign, now, impression.price_eur)
        self.billing.charge(campaign.campaign_id, impression.impression_id,
                            impression.price_eur, now)
        self._count_delivery(campaign, pageview)
        self.impressions.append(impression)
        self._deliveries.inc()
        return impression

    def run(self, pageviews, rng: random.Random) -> list[DeliveredImpression]:
        """Serve a whole pageview stream; returns the impressions we won."""
        first_index = len(self.impressions)
        for pageview in pageviews:
            self.serve(pageview, rng)
        return self.impressions[first_index:]

    def impressions_for(self, campaign_id: str) -> list[DeliveredImpression]:
        """All impressions delivered for one campaign."""
        return [impression for impression in self.impressions
                if impression.campaign.campaign_id == campaign_id]
