"""The day-merged browse stream against the heap-merged stream it replaced.

``BrowsingSimulator.stream`` binds each visitor's fixed fields once and
merges the per-visitor generators a sim day at a time with a stable
sort.  The oracle below is the earlier implementation: one generator per
visitor, merged with ``heapq.merge``, choosing the publisher (with the
earlier body of ``PublisherUniverse.sample_pageview_publisher``) and the
dwell through a call per page and the session hour through
``random.choices(weights=...)``.  Both must produce equal ``Pageview``
lists and leave the parent rng in the same state, so every simulation
output downstream stays byte-identical.
"""

import dataclasses
import heapq
import math
import random

import pytest

from repro.web.bots import Bot, BotConfig, BotFleet
from repro.web.browsing import (_DIURNAL, _SECONDS_PER_DAY, BrowsingConfig,
                                BrowsingSimulator, Pageview, _merge_by_day,
                                poisson)

DAY = 86_400.0
START = 1_459_209_600.0  # 2016-03-29


# ---------------------------------------------------------------------- #
# oracle: the lazy per-visitor generators and their heap merge
# ---------------------------------------------------------------------- #

def oracle_stream(sim, humans, bots, start, end, rng):
    generators = []
    for device in humans:
        child = random.Random(rng.getrandbits(64))
        generators.append(oracle_human(sim, device, start, end, child))
    for bot in bots:
        child = random.Random(rng.getrandbits(64))
        generators.append(oracle_bot(sim, bot, start, end, child))
    return list(heapq.merge(*generators, key=lambda view: view.timestamp))


def oracle_publisher(universe, rng, interests, country, attempts=4):
    choice = universe.publishers[universe._popularity.sample(rng)]
    interest_set = set(interests)
    for _ in range(attempts):
        topical = interest_set.intersection(choice.topics)
        local = not country or choice.country_focus in (country, "GLOBAL")
        if (topical or not interest_set) and local:
            return choice
        choice = universe.publishers[universe._popularity.sample(rng)]
    return choice


def oracle_session_start(start, end, rng):
    span_days = max(1, int(math.ceil((end - start) / _SECONDS_PER_DAY)))
    day = rng.randrange(span_days)
    hour = rng.choices(range(24), weights=_DIURNAL, k=1)[0]
    moment = (start + day * _SECONDS_PER_DAY + hour * 3600.0
              + rng.random() * 3600.0)
    return min(max(moment, start), end - 1.0)


def oracle_human(sim, device, start, end, rng):
    config = sim.config
    days = (end - start) / _SECONDS_PER_DAY
    total = poisson(rng, device.daily_pageviews * days)
    if total == 0:
        return
    favorites = [oracle_publisher(sim.universe, rng, device.interests,
                                  device.country)
                 for _ in range(config.favorite_count)]
    session_count = max(1, int(round(total / config.pages_per_session_mean)))
    starts = sorted(oracle_session_start(start, end, rng)
                    for _ in range(session_count))
    base, extra = divmod(total, session_count)
    now = 0.0
    for index, session_start in enumerate(starts):
        pages = base + (1 if index < extra else 0)
        now = max(now, session_start)
        for _ in range(pages):
            if favorites and rng.random() < config.favorite_revisit_prob:
                publisher = rng.choice(favorites)
            else:
                publisher = oracle_publisher(sim.universe, rng,
                                             device.interests, device.country)
            median = (config.human_dwell_median * device.engagement
                      * publisher.engagement)
            dwell = max(0.2, rng.lognormvariate(math.log(median),
                                                config.human_dwell_sigma))
            yield Pageview(
                timestamp=now,
                publisher=publisher,
                url=publisher.url_for_page(rng.randrange(100_000)),
                ip=device.ip,
                user_agent=device.pick_user_agent(rng),
                country=device.country,
                interests=device.interests,
                dwell_seconds=dwell,
                is_bot=False,
                visitor_id=device.user_id,
            )
            now += dwell + rng.uniform(config.think_time_min,
                                       config.think_time_max)


def oracle_bot(sim, bot, start, end, rng):
    days = (end - start) / _SECONDS_PER_DAY
    total = poisson(rng, bot.daily_pageviews * days)
    if total == 0:
        return
    targets = sim._bot_targets(bot)
    if not targets:
        return
    config = sim.config
    burst_count = max(1, total // config.bot_burst_pages)
    burst_starts = sorted(start + rng.random() * (end - start - 1.0)
                          for _ in range(burst_count))
    base, extra = divmod(total, burst_count)
    now = start
    for index, burst_start in enumerate(burst_starts):
        pages = base + (1 if index < extra else 0)
        now = max(now, burst_start)
        for _ in range(pages):
            publisher = rng.choice(targets)
            dwell = max(0.3, rng.gauss(bot.dwell_seconds, 0.8))
            yield Pageview(
                timestamp=min(now, end - 0.001),
                publisher=publisher,
                url=publisher.url_for_page(rng.randrange(100_000)),
                ip=bot.ip,
                user_agent=bot.user_agent,
                country=bot.claimed_country,
                interests=bot.target_topics,
                dwell_seconds=dwell,
                is_bot=True,
                visitor_id=-bot.bot_id,
            )
            now += dwell + rng.uniform(config.bot_burst_think_min,
                                       config.bot_burst_think_max)


# ---------------------------------------------------------------------- #
# helpers and fixtures
# ---------------------------------------------------------------------- #

def assert_matches_oracle(sim, humans, bots, start, end, seed):
    """Equal pageview lists and equal parent-rng state afterwards."""
    batched_rng, oracle_rng = random.Random(seed), random.Random(seed)
    batched = list(sim.stream(humans, bots, start, end, batched_rng))
    expected = oracle_stream(sim, humans, bots, start, end, oracle_rng)
    assert batched == expected
    assert batched_rng.getstate() == oracle_rng.getstate()
    return batched


def tie_count(views):
    """Adjacent pageviews sharing a timestamp."""
    return sum(1 for a, b in zip(views, views[1:])
               if a.timestamp == b.timestamp)


@pytest.fixture
def simulator(universe, lexicon):
    return BrowsingSimulator(universe, lexicon.tree)


def fleet(registry, daily_min, daily_max):
    config = BotConfig(bots_per_fleet=12, fleet_count=2,
                       daily_pageviews_min=daily_min,
                       daily_pageviews_max=daily_max,
                       target_profile=(("sports", 0.7), ("news", 0.3)),
                       fleet_focus_size=4)
    return BotFleet(random.Random(61), registry, config=config).bots


@pytest.fixture
def focused_bots(registry):
    return fleet(registry, 200, 400)


@pytest.fixture
def hot_bots(registry):
    """~100-200 pages per bot in ten minutes: more than fit."""
    return fleet(registry, 15_000, 30_000)


# ---------------------------------------------------------------------- #
# cases
# ---------------------------------------------------------------------- #

class TestMatchesHeapMerge:
    def test_humans_only(self, simulator, population):
        humans = population.in_country("ES")[:60]
        views = assert_matches_oracle(simulator, humans, [], START,
                                      START + DAY, 21)
        assert len(views) > 100

    def test_human_ties_across_visitors(self, simulator, population):
        # A two-hour window clamps most session starts to ``end - 1.0``,
        # so many visitors' first pages share one timestamp.
        humans = population.in_country("US")[:80]
        views = assert_matches_oracle(simulator, humans, [], START,
                                      START + 7200.0, 22)
        tied = {view.visitor_id for a, b in zip(views, views[1:])
                if a.timestamp == b.timestamp for view in (a, b)}
        assert len(tied) > 2

    def test_bots_only_focused_fleet_with_clamped_ties(self, simulator,
                                                       hot_bots):
        # A ten-minute window: bursts run past the end and clamp to
        # ``end - 0.001``, within one bot and across bots.
        end = START + 600.0
        views = assert_matches_oracle(simulator, [], hot_bots, START,
                                      end, 23)
        clamped = [view for view in views if view.timestamp == end - 0.001]
        assert len({view.visitor_id for view in clamped}) > 1
        assert len(clamped) > len({view.visitor_id for view in clamped})
        focus_lists = {(bot.fleet_id, bot.target_topics) for bot in hot_bots}
        assert len({view.publisher.domain for view in views}) \
            <= 4 * len(focus_lists)

    def test_bots_full_day(self, simulator, focused_bots):
        assert_matches_oracle(simulator, [], focused_bots, START,
                              START + DAY, 24)

    def test_mixed(self, simulator, population, focused_bots):
        humans = population.in_country("ES")[:40]
        views = assert_matches_oracle(simulator, humans, focused_bots,
                                      START, START + DAY, 25)
        assert {view.is_bot for view in views} == {False, True}

    def test_mixed_short_window_ties(self, simulator, population, hot_bots):
        humans = population.in_country("RU")[:40]
        views = assert_matches_oracle(simulator, humans, hot_bots,
                                      START, START + 900.0, 26)
        assert tie_count(views) > 10

    def test_no_favorites(self, universe, lexicon, population):
        simulator = BrowsingSimulator(universe, lexicon.tree,
                                      BrowsingConfig(favorite_count=0))
        humans = population.in_country("ES")[:40]
        views = assert_matches_oracle(simulator, humans, [], START,
                                      START + DAY, 27)
        assert views

    def test_always_revisit_favorites(self, universe, lexicon, population):
        config = BrowsingConfig(favorite_count=1, favorite_revisit_prob=1.0)
        simulator = BrowsingSimulator(universe, lexicon.tree, config)
        humans = population.in_country("US")[:20]
        assert_matches_oracle(simulator, humans, [], START, START + DAY, 28)

    def test_visitors_drawing_zero_pages(self, simulator, population,
                                         focused_bots):
        idle_humans = [dataclasses.replace(device, daily_pageviews=1e-12)
                       for device in population.in_country("ES")[:5]]
        idle_bots = [dataclasses.replace(bot, daily_pageviews=1e-12)
                     for bot in focused_bots[:3]]
        targetless = Bot(bot_id=900, fleet_id=9, ip="203.0.113.9",
                         user_agent="bot/1.0", claimed_country="ES",
                         target_topics=("no-such-topic",),
                         daily_pageviews=500.0, dwell_seconds=2.0)
        humans = (idle_humans[:2] + population.in_country("ES")[5:25]
                  + idle_humans[2:])
        bots = idle_bots[:1] + [targetless] + focused_bots[3:] + idle_bots[1:]
        views = assert_matches_oracle(simulator, humans, bots, START,
                                      START + DAY, 29)
        silent = ({device.user_id for device in idle_humans}
                  | {-bot.bot_id for bot in idle_bots + [targetless]})
        assert not silent & {view.visitor_id for view in views}

    def test_multi_ua_devices(self, simulator, population):
        humans = [device for device in population.devices
                  if len(device.user_agents) > 1][:30]
        assert len(humans) == 30
        views = assert_matches_oracle(simulator, humans, [], START,
                                      START + 2 * DAY, 30)
        secondary = [view for view in views
                     if view.user_agent != next(
                         device.user_agents[0] for device in humans
                         if device.user_id == view.visitor_id)]
        assert secondary

    def test_mixed_nine_days(self, simulator, population, focused_bots):
        # As long as the paper's February shards: nine merge days.
        humans = population.in_country("ES")[:20]
        views = assert_matches_oracle(simulator, humans, focused_bots[:4],
                                      START, START + 9 * DAY, 32)
        days = {int((view.timestamp - START) // DAY) for view in views}
        assert days == set(range(9))

    def test_no_visitors(self, simulator):
        assert assert_matches_oracle(simulator, [], [], START,
                                     START + DAY, 31) == []


class TestMergeByDay:
    """Day boundaries and ties the simulator rarely produces exactly."""

    def test_matches_heap_merge_at_boundaries(self, universe):
        publisher = universe.publishers[0]
        rng = random.Random(33)
        # Timestamps on a half-hour grid: many exact day boundaries
        # (including the window start) and many ties across visitors.
        grid = [START + 1800.0 * rng.randrange(4 * 48) for _ in range(400)]
        visitors = [sorted(rng.sample(grid, rng.randrange(0, 40)))
                    for _ in range(15)]
        streams = [[Pageview(timestamp=timestamp, publisher=publisher,
                             url="u", ip="ip", user_agent="ua", country="ES",
                             interests=(), dwell_seconds=1.0, is_bot=False,
                             visitor_id=index * 1000 + position)
                    for position, timestamp in enumerate(times)]
                   for index, times in enumerate(visitors)]
        merged = list(_merge_by_day([iter(s) for s in streams], START))
        expected = list(heapq.merge(*streams,
                                    key=lambda view: view.timestamp))
        assert [view.visitor_id for view in merged] \
            == [view.visitor_id for view in expected]
        assert tie_count(merged) > 50
        assert any(view.timestamp == START + DAY for view in merged)
