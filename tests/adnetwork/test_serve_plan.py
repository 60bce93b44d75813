"""The ad server's eligibility plan against a nested-loop oracle.

``AdServer.serve`` checks each campaign against a per-placement plan
(geo and exclusions resolved once per country and publisher, contextual
verdicts cached, shared decision constants).  The oracle below is the
plain loop the plan replaced: every campaign, every check, in campaign
order, with fresh decisions and the clamped run-of-network formula.
Both run over the same seeded pageview streams; they must agree on every
impression, every match decision and the final RNG state.

The streams exercise what the paper scenario never does: frequency caps
(per campaign or by policy), flights that start or end mid-stream,
excluded domains and anonymous inventory, and bots whose IP database
country differs from the country they claim.
"""

import random

import pytest

from repro.adnetwork.campaign import CampaignSpec
from repro.adnetwork.inventory import ExternalDemand, make_request
from repro.adnetwork.matching import MatchDecision, MatchEngine, MatchReason
from repro.adnetwork.server import AdServer, DeliveredImpression, NetworkPolicy
from repro.geo.ipdb import GeoIpDatabase
from repro.geo.providers import ProviderRegistry
from repro.obs.trace import FlightRecorder, Tracer
from tests.adnetwork.conftest import END, START, make_pageview, make_publisher

HOURS = 3600.0


class NestedLoopServer(AdServer):
    """The oracle: the per-campaign serve loop, one check at a time."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Per pageview, the (campaign id, decision) of every decision.
        self.decisions = []

    def oracle_broad_rate(self, campaign, now):
        policy = self.policy
        elapsed_days = max(0.0, (now - campaign.start_unix) / 86_400.0)
        expected = campaign.daily_budget_eur * elapsed_days
        if expected <= 0.0:
            return policy.broad_base_rate
        spent = self.pacer.total_spend.get(campaign.campaign_id, 0.0)
        pressure = min(1.0, max(0.0, (expected - spent) / expected))
        supply = self.matched_supply(campaign.campaign_id)
        scarcity = min(1.0, max(0.0, 1.0 - supply / policy.matched_supply_ref))
        return (policy.broad_base_rate
                + pressure * scarcity
                * (policy.broad_max_rate - policy.broad_base_rate))

    def oracle_decide(self, campaign, publisher, interests, rng, broad_rate):
        matcher = self.matcher
        if campaign.keywords and matcher.contextual_match(campaign, publisher):
            return MatchDecision(eligible=True, reason=MatchReason.CONTEXTUAL)
        if matcher.behavioural_match(campaign, interests) \
                and rng.random() < matcher.behavioural_rate:
            return MatchDecision(eligible=True,
                                 reason=MatchReason.BEHAVIOURAL)
        if rng.random() < broad_rate:
            return MatchDecision(eligible=True, reason=MatchReason.BROAD)
        return MatchDecision(eligible=False, reason=MatchReason.NONE)

    def serve(self, pageview, rng):
        self.decisions.append([])
        self._pageviews_seen.inc()
        if pageview.is_bot and rng.random() < self.policy.ivt_prefilter_rate:
            self.prefiltered_pageviews += 1
            self._prefiltered.inc()
            return None
        now = pageview.timestamp
        country = self.resolve_country(pageview)
        candidates, decisions = [], {}
        for campaign in self.campaigns:
            if not campaign.is_active(now):
                continue
            if not campaign.targets_country(country):
                continue
            if campaign.excludes_publisher(pageview.publisher.domain,
                                           pageview.publisher.is_anonymous):
                continue
            cap = self._effective_cap(campaign)
            key = (campaign.campaign_id, pageview.ip, pageview.user_agent)
            if cap is not None and self._frequency.get(key, 0) >= cap:
                continue
            decision = self.oracle_decide(
                campaign, pageview.publisher, pageview.interests, rng,
                self.oracle_broad_rate(campaign, now))
            self.decisions[-1].append((campaign.campaign_id, decision))
            campaign_id = campaign.campaign_id
            self._supply_examined[campaign_id] = \
                self._supply_examined.get(campaign_id, 0) + 1
            if decision.claimed_contextual:
                self._supply_matched[campaign_id] = \
                    self._supply_matched.get(campaign_id, 0) + 1
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
        impression = DeliveredImpression(
            impression_id=self._next_impression_id, campaign=campaign,
            pageview=pageview,
            exposure=self.exposure_model.sample(pageview, rng),
            match=decisions[campaign.campaign_id],
            clearing_cpm=outcome.clearing_cpm)
        self._next_impression_id += 1
        self.pacer.record_spend(campaign, now, impression.price_eur)
        self.billing.charge(campaign.campaign_id, impression.impression_id,
                            impression.price_eur, now)
        self._count_delivery(campaign, pageview)
        self.impressions.append(impression)
        self._deliveries.inc()
        return impression


class RecordingMatchEngine(MatchEngine):
    """The plan path's matcher, logging every decision per pageview."""

    def __init__(self, lexicon):
        super().__init__(lexicon)
        self.decisions = []

    def settle(self, contextual, campaign, interests, rng, broad_rate):
        decision = super().settle(contextual, campaign, interests, rng,
                                  broad_rate)
        self.decisions[-1].append((campaign.campaign_id, decision))
        return decision


class PlanServer(AdServer):
    """The server under test, opening its matcher's log per pageview."""

    def serve(self, pageview, rng):
        self.matcher.decisions.append([])
        return super().serve(pageview, rng)


@pytest.fixture(scope="module")
def registry():
    return ProviderRegistry(random.Random(61))


@pytest.fixture(scope="module")
def ipdb(registry):
    return GeoIpDatabase(registry)


def campaigns():
    def spec(campaign_id, keywords, **overrides):
        defaults = dict(campaign_id=campaign_id, keywords=keywords,
                        cpm_eur=0.10, target_countries=("ES",),
                        start_unix=START, end_unix=END,
                        daily_budget_eur=0.02)
        defaults.update(overrides)
        return CampaignSpec(**defaults)

    return [
        spec("Football-capped", ("Football",), frequency_cap=2),
        spec("Research-late", ("Research",), cpm_eur=0.20,
             start_unix=START + 6 * HOURS),
        spec("Football-early", ("Football",), end_unix=START + 15 * HOURS),
        spec("Travel-excluding", ("Travel",), cpm_eur=0.15,
             excluded_domains=frozenset({"futbol9.es", "ROAD-TRIP.ES"}),
             exclude_anonymous=True),
        spec("Science-ES-RU", ("science",), target_countries=("ES", "RU"),
             daily_budget_eur=0.05),
        spec("Research-RU", ("Research",), target_countries=("RU",)),
    ]


PUBLISHERS = (
    make_publisher(),
    make_publisher(domain="road-trip.es", topics=("travel",),
                   keywords=("travel",)),
    make_publisher(domain="labnews.es", topics=("research",),
                   keywords=("research", "science")),
    make_publisher(domain="anon-sports.com", topics=("la-liga",),
                   keywords=("liga",), is_anonymous=True),
    make_publisher(domain="anon-travel.com", topics=("travel",),
                   keywords=("trips",), is_anonymous=True),
)

INTERESTS = ((), ("football",), ("la-liga", "travel"), ("research",),
             ("science", "automotive"))


def pageview_stream(seed, registry, count=600):
    """Seeded pageviews over the flight day, time-ordered.

    Few visitors (IP, user agent) so frequency caps bind; some are bots,
    and some of those sit in a Russian network while claiming Spain, or
    in no network the IP database knows.
    """
    rng = random.Random(seed)
    es_block = registry.access_providers("ES")[0].blocks[0]
    ru_block = registry.access_providers("RU")[0].blocks[0]
    visitors = [(es_block.nth(10 + index), f"UA-{index % 3}", "ES", False)
                for index in range(6)]
    visitors += [(ru_block.nth(20 + index), "UA-bot", "ES", True)
                 for index in range(3)]
    visitors += [(ru_block.nth(40), "UA-ru", "RU", False),
                 ("203.0.113.7", "UA-unknown", "ES", True)]
    times = sorted(rng.uniform(START - 2 * HOURS, END + 2 * HOURS)
                   for _ in range(count))
    views = []
    for index, timestamp in enumerate(times):
        ip, user_agent, country, is_bot = rng.choice(visitors)
        views.append(make_pageview(
            publisher=rng.choice(PUBLISHERS), timestamp=timestamp, ip=ip,
            user_agent=user_agent, country=country,
            interests=rng.choice(INTERESTS), is_bot=is_bot,
            visitor_id=index))
    return views


def run(server_class, matcher, ipdb, policy, views, seed):
    server = server_class(campaigns(), matcher, ExternalDemand(), ipdb,
                          policy=policy)
    rng = random.Random(seed)
    served = [server.serve(view, rng) is not None for view in views]
    return server, served, rng.getstate()


@pytest.mark.parametrize("policy", [
    NetworkPolicy(ivt_prefilter_rate=0.2),
    NetworkPolicy(ivt_prefilter_rate=0.0, default_frequency_cap=3),
    NetworkPolicy(ivt_prefilter_rate=0.5, broad_base_rate=0.2,
                  min_supply_samples=5),
], ids=["no-default-cap", "policy-cap", "broad-pressure"])
@pytest.mark.parametrize("seed", [3, 17, 2016])
def test_plan_matches_nested_loop(lexicon, registry, ipdb, policy, seed):
    views = pageview_stream(seed, registry)
    oracle, oracle_served, oracle_state = run(
        NestedLoopServer, MatchEngine(lexicon), ipdb, policy, views, seed)
    server, served, state = run(
        PlanServer, RecordingMatchEngine(lexicon), ipdb, policy, views, seed)

    assert served == oracle_served
    assert server.matcher.decisions == oracle.decisions
    assert state == oracle_state
    assert [(imp.impression_id, imp.campaign.campaign_id, imp.match,
             imp.clearing_cpm, imp.exposure) for imp in server.impressions] \
        == [(imp.impression_id, imp.campaign.campaign_id, imp.match,
             imp.clearing_cpm, imp.exposure) for imp in oracle.impressions]
    assert server.pacer.total_spend == oracle.pacer.total_spend
    assert server._frequency == oracle._frequency
    assert server.metrics.snapshot() == oracle.metrics.snapshot()


def test_streams_reach_every_branch(lexicon, registry, ipdb):
    """The comparison above is only as good as the branches it visits."""
    views = pageview_stream(17, registry)
    policy = NetworkPolicy(ivt_prefilter_rate=0.0, default_frequency_cap=3)
    server, _, _ = run(NestedLoopServer, MatchEngine(lexicon), ipdb, policy,
                       views, 17)
    examined = {campaign_id for per_view in server.decisions
                for campaign_id, _ in per_view}
    reasons = {decision.reason for per_view in server.decisions
               for _, decision in per_view}
    delivered = {imp.campaign.campaign_id for imp in server.impressions}
    # Caps bind: some visitor hit a capped campaign its cap's worth.
    assert max(server._frequency.values()) == 3
    assert any(count == 2 for (campaign_id, _, _), count
               in server._frequency.items()
               if campaign_id == "Football-capped")
    # Mid-stream flights serve on their side of the boundary only.
    assert {"Research-late", "Football-early"} <= delivered
    for imp in server.impressions:
        assert imp.campaign.is_active(imp.pageview.timestamp)
        assert not (imp.campaign.campaign_id == "Travel-excluding"
                    and (imp.publisher_domain in ("futbol9.es",
                                                  "road-trip.es")
                         or imp.pageview.publisher.is_anonymous))
    # Russian-network bots claiming Spain get RU-targeted campaigns.
    assert any(imp.campaign.campaign_id == "Research-RU"
               and imp.pageview.country == "ES" for imp in server.impressions)
    assert "Research-RU" in examined
    assert {MatchReason.CONTEXTUAL, MatchReason.BEHAVIOURAL,
            MatchReason.BROAD, MatchReason.NONE} <= reasons


def test_untraced_serve_keeps_the_traced_now(lexicon, registry, ipdb):
    """Serve-path events skipped while not recording never move ``now``.

    Journal events are stamped with the tracer's ``now``, so an untraced
    run must report the same instant as a traced one after every serve.
    """
    views = pageview_stream(17, registry)
    policy = NetworkPolicy(ivt_prefilter_rate=0.2)
    nows = {}
    for tracer in (Tracer(FlightRecorder()), Tracer()):
        server = AdServer(campaigns(), MatchEngine(lexicon), ExternalDemand(),
                          ipdb, policy=policy, tracer=tracer)
        rng = random.Random(17)
        seen = []
        for view in views:
            tracer.start("impression", at=view.timestamp)
            impression = server.serve(view, rng)
            seen.append(tracer.now)
            if impression is None:
                tracer.abandon()
            else:
                tracer.commit()
        nows[tracer.recording] = seen
    assert len(server.impressions) > 0
    assert nows[True] == nows[False]
