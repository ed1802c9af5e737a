"""JSON-safe (de)serialization of topologies, contracts and requests.

RTnet's current version configures all real-time connections *offline*
(Section 5: "the proposed CAC algorithm [is] used to set up real-time
connections off-line"); that workflow needs network descriptions and
connection sets that live in files.  Everything here round-trips
through plain dicts of JSON types -- rationals are encoded as "p/q"
strings so exact traffic contracts survive the trip.
:class:`~repro.core.server.CacServer` persists its connection set with
these forms and restores it by setting each connection up again; a
single switch rebuilds its state only by journal replay
(:meth:`~repro.core.switch_cac.SwitchCAC.recover`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, Mapping, Union

from ..core.traffic import VBRParameters
from ..exceptions import ReproError
from .connection import ConnectionRequest
from .routing import Route
from .topology import Network

__all__ = [
    "number_to_json",
    "number_from_json",
    "traffic_to_dict",
    "traffic_from_dict",
    "network_to_dict",
    "network_from_dict",
    "request_to_dict",
    "request_from_dict",
]


class SerializationError(ReproError, ValueError):
    """Malformed serialized form."""


def number_to_json(value: Union[int, float, Fraction]) -> Union[int, float, str]:
    """Encode a number; Fractions become exact "p/q" strings."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value


def number_from_json(value: Union[int, float, str]) -> Union[int, float, Fraction]:
    """Decode a number encoded by :func:`number_to_json`."""
    if isinstance(value, str):
        try:
            numerator, denominator = value.split("/")
            return Fraction(int(numerator), int(denominator))
        except (ValueError, ZeroDivisionError) as err:
            raise SerializationError(f"bad rational {value!r}") from err
    return value


def traffic_to_dict(params: VBRParameters) -> Dict[str, Any]:
    """Serialize a traffic contract."""
    return {
        "pcr": number_to_json(params.pcr),
        "scr": number_to_json(params.scr),
        "mbs": number_to_json(params.mbs),
    }


def traffic_from_dict(data: Mapping[str, Any]) -> VBRParameters:
    """Rebuild a traffic contract."""
    try:
        return VBRParameters(
            pcr=number_from_json(data["pcr"]),
            scr=number_from_json(data["scr"]),
            mbs=number_from_json(data["mbs"]),
        )
    except KeyError as err:
        raise SerializationError(f"traffic dict missing {err}") from None


def network_to_dict(network: Network) -> Dict[str, Any]:
    """Serialize a topology (nodes, links, advertised bounds)."""
    return {
        "nodes": [
            {"name": node.name, "kind": node.kind}
            for node in network.nodes()
        ],
        "links": [
            {
                "name": link.name,
                "src": link.src,
                "dst": link.dst,
                "capacity": link.capacity,
                "bounds": {
                    str(priority): number_to_json(bound)
                    for priority, bound in link.bounds.items()
                },
            }
            for link in network.links()
        ],
    }


def network_from_dict(data: Mapping[str, Any]) -> Network:
    """Rebuild a topology serialized by :func:`network_to_dict`."""
    network = Network()
    try:
        for node in data["nodes"]:
            network.add_node(node["name"], node["kind"])
        for link in data["links"]:
            network.add_link(
                link["src"], link["dst"], name=link["name"],
                capacity=link.get("capacity", 1.0),
                bounds={
                    int(priority): number_from_json(bound)
                    for priority, bound in link.get("bounds", {}).items()
                },
            )
    except KeyError as err:
        raise SerializationError(f"network dict missing {err}") from None
    return network


def request_to_dict(request: ConnectionRequest) -> Dict[str, Any]:
    """Serialize a connection request (route as link names)."""
    return {
        "name": request.name,
        "traffic": traffic_to_dict(request.traffic),
        "route": list(request.route.link_names),
        "priority": request.priority,
        "delay_bound": (
            None if request.delay_bound is None
            else number_to_json(request.delay_bound)
        ),
    }


def request_from_dict(data: Mapping[str, Any],
                      network: Network) -> ConnectionRequest:
    """Rebuild a request against a live topology."""
    try:
        delay_bound = data.get("delay_bound")
        return ConnectionRequest(
            name=data["name"],
            traffic=traffic_from_dict(data["traffic"]),
            route=Route(network, data["route"]),
            priority=data.get("priority", 0),
            delay_bound=(
                None if delay_bound is None
                else number_from_json(delay_bound)
            ),
        )
    except KeyError as err:
        raise SerializationError(f"request dict missing {err}") from None
