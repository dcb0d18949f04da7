"""The three paper workloads: seeded inputs, queries and output checks.

A workload's input for one run is a sequence of fixed-size
sub-streams, each generated from its own sub-seed derived from the run
seed; a run measures as many of them as fit in its time.  The cost of
one sub-stream depends on its randomly generated structure (fault
schedules, rental chains): its cv is 6-7% on every workload here, so a
single stream per run would let the seed dominate the spread between
runs; 25-40 sub-streams per run average that out, while the same seed
still gives the same inputs.
Every element is generated lazily, outside timed sections.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Iterator, List, Sequence, Tuple

from repro.api import EngineConfig
from repro.graph.temporal import MINUTE
from repro.stream.stream import StreamElement
from repro.usecases import micromobility, network, pole

#: The engine path every digest is checked against: interpreted
#: evaluation over the dict-based reference graph, no delta evaluation
#: and no vectorized pruning.  Its emissions hold the same rows as the
#: default stack's, so any optimisation that changes a result shows.
REFERENCE_CONFIG = EngineConfig(
    delta_eval=False,
    physical_plans=False,
    graph_backend="reference",
    vectorized=False,
)

#: How far back an alert may reach for the fault behind it: the detect
#: window (10 min) plus the enrich (5 min) and alert (3 min) windows,
#: plus one event period of slack.
ALERT_LOOKBACK = 19 * MINUTE


def sub_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def canonical(line: str) -> str:
    """An emission line with its rows in sorted order.

    Seraph tables are bags: with no ORDER BY, row order is not part of
    an emission's meaning, and the compiled-plan and interpreted paths
    may order rows differently.
    """
    document = json.loads(line)
    document["rows"] = sorted(document["rows"],
                              key=lambda row: json.dumps(row, sort_keys=True))
    return json.dumps(document, sort_keys=True)


def line_hashes(lines: Sequence[str], key=None) -> bytes:
    """A digest that keeps each line apart: 8 bytes per emission line.

    A pass keeps this instead of its emission lines, so the harness's
    memory (and its peak RSS) does not grow with how many passes fit in
    a run.  ``key`` maps each line first (``canonical``).
    """
    return b"".join(
        hashlib.blake2b((key(line) if key else line).encode("utf-8"),
                        digest_size=8).digest()
        for line in lines
    )


@dataclass(frozen=True)
class PassOutput:
    """What the output checks need from one pass, kept between passes."""

    exact: bytes
    canonical: bytes
    problems: Tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    queries: Tuple[str, ...]
    #: Builds the generator of one sub-stream from its sub-seed.
    make_generator: Callable[[int], object]
    #: ``check(generator, documents) -> problems`` over the emission
    #: documents (``emission_document`` shape) of one sub-stream.
    check: Callable[[object, List[dict]], List[str]]
    over_http: bool = False

    def generator(self, seed: int, index: int):
        return self.make_generator(sub_seed(seed, index))


def summarize_pass(workload: Workload, generator,
                   lines: Sequence[str]) -> PassOutput:
    """Digest one pass's emission lines and run the workload's own
    checks on them; called between passes, outside timed sections."""
    documents = [json.loads(line) for line in lines]
    return PassOutput(
        exact=line_hashes(lines),
        canonical=line_hashes(lines, canonical),
        problems=tuple(workload.check(generator, documents)),
    )


def elements(generator) -> Iterator[StreamElement]:
    """Lazy iteration where the generator offers it."""
    iterate = getattr(generator, "iter_stream", None)
    if iterate is not None:
        return iterate()
    return iter(generator.stream())


# -- network: Listing 2 as detect -> enrich -> alert -------------------------

def _network_generator(seed: int):
    return network.NetworkStreamGenerator(
        network.NetworkConfig(racks=24, routers=6, events=30, seed=seed)
    )


def _check_network(generator, documents: List[dict]) -> List[str]:
    """Alerts name only racks whose router uplink was reported down."""
    topology = generator.topology
    config = generator.config
    instants = [
        config.start + (event + 1) * config.period
        for event in range(config.events)
    ]
    problems = []
    for document in documents:
        if document["query"] != "pipeline_alert":
            continue
        at = document["instant"]
        for row in document["rows"]:
            router = topology.router_of_rack(row["rack_id"])
            if not any(
                router in generator.faults_at(instant)
                for instant in instants
                if at - ALERT_LOOKBACK <= instant <= at
            ):
                problems.append(
                    f"alert at {at} names rack {row['rack_id']} but its "
                    f"router {router} had no reported fault"
                )
    return problems


# -- micromobility: Listing 5 student trick ----------------------------------

#: The first evaluation of the student-trick query, one window (PT1H)
#: after the stream starts at 08:00: every evaluation sees a full
#: window, so the latency percentiles do not straddle a ramp of cheap
#: half-empty ones (per-sub-stream cv of p50 0.08 instead of 0.11).
MICROMOBILITY_START = "2022-08-01T09:05"


def _micromobility_generator(seed: int):
    """Every user chains free rentals and there are few users and
    stations, so the live chains saturate at ``users`` within the first
    hour and every station sees many of them: the window then holds a
    steady, dense load whatever the seed.  With a small fraud rate the
    cost follows how many fraudsters the seed happens to draw: the cv of
    one sub-stream's cost was 0.29 at ``fraud_rate=0.1`` with 60
    stations and 400 users, and is 0.06 here."""
    return micromobility.RentalStreamGenerator(
        micromobility.RentalStreamConfig(
            stations=10, users=10, vehicles=64, rentals_per_event=2,
            fraud_rate=1.0, events=36, seed=seed,
        )
    )


def _check_micromobility(generator, documents: List[dict]) -> List[str]:
    """Every reported rental exists in the stream, and every chain it
    reports runs through Station ids that exist."""
    replay = micromobility.RentalStreamGenerator(generator.config)
    rentals = set()
    for element in replay.iter_stream():
        graph = element.graph
        for relationship in graph.relationships.values():
            if relationship.type == "rentedAt":
                station = graph.node(relationship.trg)
                rentals.add((relationship.properties["user_id"],
                             station.properties["id"],
                             relationship.properties["val_time"]))
    stations = range(1, generator.config.stations + 1)
    problems = []
    for document in documents:
        for row in document["rows"]:
            rental = (row["user_id"], row["station_id"], row["val_time"])
            if rental not in rentals:
                problems.append(f"row names no rental in the stream: {rental}")
            hops = row["hops"]["items"]  # the wire codec's list form
            if not hops or any(hop not in stations for hop in hops):
                problems.append(f"row has a bad chain of stations: {row}")
    return problems


# -- POLE crime suspects over the service -------------------------------------

def _pole_generator(seed: int):
    return pole.PoleStreamGenerator(pole.PoleConfig(events=100, seed=seed))


def suspects(documents: List[dict]) -> set:
    return {
        (row["person_id"], row["crime_id"])
        for document in documents
        for row in document["rows"]
    }


def _check_pole(generator, documents: List[dict]) -> List[str]:
    found = suspects(documents)
    truth = generator.ground_truth()
    if found == truth:
        return []
    return [
        f"suspects differ from ground truth: {len(found - truth)} "
        f"spurious, {len(truth - found)} missed"
    ]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="network",
            queries=network.pipeline_queries(),
            make_generator=_network_generator,
            check=_check_network,
        ),
        Workload(
            name="micromobility",
            queries=(micromobility.student_trick_query(
                starting_at=MICROMOBILITY_START),),
            make_generator=_micromobility_generator,
            check=_check_micromobility,
        ),
        Workload(
            name="pole-service",
            queries=(pole.crime_suspects_query(),),
            make_generator=_pole_generator,
            check=_check_pole,
            over_http=True,
        ),
    )
}
