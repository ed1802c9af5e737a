"""Route construction, shortest paths, alternate paths and ring walks."""

import pytest

from repro.exceptions import RoutingError
from repro.network.routing import (
    Route,
    alternate_paths,
    ring_walk,
    shortest_path,
)
from repro.network.topology import Network, line_network, ring_network


@pytest.fixture
def line():
    return line_network(3, bounds={0: 32}, terminals_per_switch=1)


class TestRoute:
    def test_valid_route(self, line):
        route = Route(line, ["t0.0->s0", "s0->s1", "s1->t1.0"])
        assert route.source == "t0.0"
        assert route.destination == "t1.0"
        assert len(route) == 3

    def test_disconnected_rejected(self, line):
        with pytest.raises(RoutingError, match="do not connect"):
            Route(line, ["t0.0->s0", "s1->s2"])

    def test_empty_rejected(self, line):
        with pytest.raises(RoutingError, match="at least one"):
            Route(line, [])

    def test_through_terminal_rejected(self, line):
        line.add_link("t1.0", "s2", name="illegal")
        with pytest.raises(RoutingError, match="not a switch"):
            Route(line, ["s1->t1.0", "illegal"])

    def test_hops_skip_access_link(self, line):
        route = Route(line, ["t0.0->s0", "s0->s1", "s1->t1.0"])
        hops = route.hops()
        assert [(h.switch, h.in_link, h.out_link) for h in hops] == [
            ("s0", "t0.0->s0", "s0->s1"),
            ("s1", "s0->s1", "s1->t1.0"),
        ]

    def test_hops_from_switch_source(self, line):
        route = Route(line, ["s0->s1", "s1->s2"])
        hops = route.hops()
        assert hops[0].switch == "s0"
        assert hops[0].in_link == "@source"

    def test_equality_and_hash(self, line):
        a = Route(line, ["s0->s1", "s1->s2"])
        b = Route(line, ["s0->s1", "s1->s2"])
        assert a == b
        assert len({a, b}) == 1

    def test_repr_shows_path(self, line):
        assert "s0 -> s1" in repr(Route(line, ["s0->s1"]))


class TestShortestPath:
    def test_direct_neighbors(self, line):
        route = shortest_path(line, "s0", "s1")
        assert route.link_names == ("s0->s1",)

    def test_terminal_to_terminal(self, line):
        route = shortest_path(line, "t0.0", "t2.0")
        assert route.source == "t0.0"
        assert route.destination == "t2.0"
        assert len(route) == 4   # access + 2 ring + delivery

    def test_no_route(self):
        net = Network()
        net.add_switch("a")
        net.add_switch("b")
        with pytest.raises(RoutingError, match="no route"):
            shortest_path(net, "a", "b")

    def test_same_node_rejected(self, line):
        with pytest.raises(RoutingError):
            shortest_path(line, "s0", "s0")

    def test_does_not_route_through_terminals(self):
        # a - t - b is the only physical path; BFS must refuse it.
        net = Network()
        net.add_switch("a")
        net.add_switch("b")
        net.add_terminal("t")
        net.add_duplex("a", "t")
        net.add_duplex("t", "b")
        with pytest.raises(RoutingError, match="no route"):
            shortest_path(net, "a", "b")

    def test_picks_fewest_links(self):
        net = Network()
        for name in ("a", "b", "c", "d"):
            net.add_switch(name)
        net.add_link("a", "b")
        net.add_link("b", "d")
        net.add_link("a", "c")
        net.add_link("c", "b")
        route = shortest_path(net, "a", "d")
        assert route.link_names == ("a->b", "b->d")


def diamond_network():
    """a -> {b, c} -> d: two equal-length disjoint switch paths."""
    net = Network()
    for name in ("a", "b", "c", "d"):
        net.add_switch(name)
    net.add_link("a", "b")
    net.add_link("b", "d")
    net.add_link("a", "c")
    net.add_link("c", "d")
    return net


class TestAlternatePaths:
    def test_diamond_orders_equal_lengths_by_link_names(self):
        net = diamond_network()
        routes = alternate_paths(net, "a", "d", k=3)
        assert [r.link_names for r in routes] == [
            ("a->b", "b->d"),
            ("a->c", "c->d"),
        ]

    def test_diamond_k1_is_the_lexicographic_shortest(self):
        net = diamond_network()
        (route,) = alternate_paths(net, "a", "d", k=1)
        assert route.link_names == ("a->b", "b->d")

    def test_ring_offers_both_directions_shortest_first(self):
        net = ring_network(4, bounds={0: 32})
        # Add the counter-rotating ring so two directions exist.
        for index in range(4):
            nxt = (index + 1) % 4
            net.add_link(f"s{nxt}", f"s{index}", name=f"r{nxt}->{index}")
        routes = alternate_paths(net, "s0", "s3", k=2)
        assert routes[0].link_names == ("r0->3",)          # 1 hop, reverse
        assert routes[1].link_names == ("s0->s1", "s1->s2", "s2->s3")

    def test_unidirectional_ring_has_exactly_one_loopless_path(self):
        net = ring_network(4, bounds={0: 32})
        routes = alternate_paths(net, "s0", "s2", k=5)
        assert [r.link_names for r in routes] == [("s0->s1", "s1->s2")]

    def test_disconnected_returns_empty(self):
        net = Network()
        net.add_switch("a")
        net.add_switch("b")
        assert alternate_paths(net, "a", "b", k=3) == []

    def test_avoid_link_reroutes(self):
        net = diamond_network()
        routes = alternate_paths(net, "a", "d", k=2,
                                 avoid=frozenset(("a->b",)))
        assert [r.link_names for r in routes] == [("a->c", "c->d")]

    def test_avoid_node_reroutes(self):
        net = diamond_network()
        routes = alternate_paths(net, "a", "d", k=2, avoid=frozenset(("c",)))
        assert [r.link_names for r in routes] == [("a->b", "b->d")]

    def test_never_routes_through_terminals(self):
        net = diamond_network()
        net.add_terminal("t")
        net.add_duplex("a", "t")
        net.add_duplex("t", "d")
        routes = alternate_paths(net, "a", "d", k=5)
        for route in routes:
            assert "t" not in [link.dst for link in route.links[:-1]]

    def test_a_link_added_later_opens_a_shorter_path(self):
        net = diamond_network()
        assert [r.link_names for r in alternate_paths(net, "a", "d", k=1)] \
            == [("a->b", "b->d")]
        net.add_link("a", "d")
        assert [r.link_names for r in alternate_paths(net, "a", "d", k=1)] \
            == [("a->d",)]

    def test_each_call_returns_a_fresh_list(self):
        net = diamond_network()
        first = alternate_paths(net, "a", "d", k=2)
        first.clear()
        second = alternate_paths(net, "a", "d", k=2)
        assert [r.link_names for r in second] == [
            ("a->b", "b->d"),
            ("a->c", "c->d"),
        ]
        assert second is not alternate_paths(net, "a", "d", k=2)

    def test_terminal_endpoints_work(self, line):
        routes = alternate_paths(line, "t0.0", "t2.0", k=2)
        assert len(routes) == 1
        assert routes[0].source == "t0.0"
        assert routes[0].destination == "t2.0"

    def test_same_node_rejected(self):
        net = diamond_network()
        with pytest.raises(RoutingError):
            alternate_paths(net, "a", "a", k=1)

    def test_bad_k_rejected(self):
        net = diamond_network()
        with pytest.raises(RoutingError, match="k >= 1"):
            alternate_paths(net, "a", "d", k=0)

    def test_first_route_matches_shortest_path_length(self):
        net = diamond_network()
        best = alternate_paths(net, "a", "d", k=1)[0]
        assert len(best) == len(shortest_path(net, "a", "d"))


class TestRingWalk:
    def test_full_circle(self):
        net = ring_network(4, bounds={0: 32})
        route = ring_walk(net, "s1", hops=4)
        assert route.link_names == (
            "s1->s2", "s2->s3", "s3->s0", "s0->s1")

    def test_with_access_link(self):
        net = ring_network(4, bounds={0: 32}, terminals_per_switch=1)
        route = ring_walk(net, "s0", hops=3, access_from="t0.0")
        assert route.source == "t0.0"
        assert route.link_names[0] == "t0.0->s0"
        assert len(route) == 4

    def test_zero_hops_rejected(self):
        net = ring_network(3, bounds={0: 32})
        with pytest.raises(RoutingError):
            ring_walk(net, "s0", hops=0)

    def test_ambiguous_topology_rejected(self):
        net = ring_network(3, bounds={0: 32})
        net.add_link("s0", "s2", name="chord")
        with pytest.raises(RoutingError, match="ring walk"):
            ring_walk(net, "s0", hops=2)
