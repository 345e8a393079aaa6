"""Flow records and aggregation.

A *data flow* is a ``<data type category, destination>`` pair observed
in a trace (paper §3.2.1).  :class:`FlowObservation` carries the full
audit context (service, column, platform, party label);
:class:`FlowTable` aggregates observations into the structures the
results section consumes: the Table 4 grid, unique-flow counts, and
per-destination data type sets for the linkability analysis.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.destinations.party import PartyLabel
from repro.model import FlowCell, Platform, Presence, TraceColumn
from repro.ontology import ONTOLOGY
from repro.ontology.nodes import Level2, Level3


_CELL_FOR = {
    PartyLabel.FIRST_PARTY: FlowCell.COLLECT_1ST,
    PartyLabel.FIRST_PARTY_ATS: FlowCell.COLLECT_1ST_ATS,
    PartyLabel.THIRD_PARTY: FlowCell.SHARE_3RD,
    PartyLabel.THIRD_PARTY_ATS: FlowCell.SHARE_3RD_ATS,
}


def cell_for(party: PartyLabel) -> FlowCell:
    """Map a destination's party label to its Table 4 flow cell."""
    return _CELL_FOR[party]


@dataclass(frozen=True, slots=True)
class FlowObservation:
    """One observed data flow with its audit context."""

    service: str
    column: TraceColumn
    platform: Platform
    level3: Level3
    fqdn: str
    esld: str
    party: PartyLabel
    raw_key: str = ""

    @property
    def level2(self) -> Level2:
        return ONTOLOGY.level2_of(self.level3)

    @property
    def cell(self) -> FlowCell:
        return cell_for(self.party)

    @property
    def flow_pair(self) -> tuple[Level3, str]:
        """The paper's unique-flow identity <data type, destination>."""
        return (self.level3, self.fqdn)


class FlowTable:
    """All flow observations of a corpus, with audit-ready roll-ups."""

    def __init__(self) -> None:
        self._observations: list[FlowObservation] = []
        # (service, level2, column, cell) -> {platforms observed}
        self._grid: dict[tuple, set[Platform]] = defaultdict(set)
        # (service, column) -> {fqdn: {level3 types}} for third parties,
        # fqdns in first-seen order
        self._per_destination: dict[
            tuple[str, TraceColumn], dict[str, set[Level3]]
        ] = {}
        self._party_by_fqdn: dict[tuple[str, str], PartyLabel] = {}

    def parts(self) -> tuple[list, dict, dict, dict]:
        """The table's state: ``(observations, grid, per_destination,
        party_by_fqdn)``.

        The live structures, not copies — callers only read them.  With
        :meth:`from_parts` this lets a table cross a process boundary
        (or a cache) without re-deriving its roll-ups observation by
        observation.
        """
        return (
            self._observations,
            self._grid,
            self._per_destination,
            self._party_by_fqdn,
        )

    @classmethod
    def from_parts(
        cls,
        observations: list[FlowObservation],
        grid: defaultdict[tuple, set[Platform]],
        per_destination: dict[tuple[str, TraceColumn], dict[str, set[Level3]]],
        party_by_fqdn: dict[tuple[str, str], PartyLabel],
    ) -> "FlowTable":
        """Rebuild a table from :meth:`parts`; it takes ownership of them.

        The roll-ups must be the ones :meth:`add` and
        :meth:`register_party` derived from ``observations``, dict
        insertion order included — then the table is indistinguishable
        from one built by replaying the observations.  ``grid`` must be
        a ``defaultdict(set)``, as :meth:`add` and :meth:`merge` extend
        it in place.
        """
        table = cls()
        table._observations = observations
        table._grid = grid
        table._per_destination = per_destination
        table._party_by_fqdn = party_by_fqdn
        return table

    def add(self, observation: FlowObservation) -> None:
        self._observations.append(observation)
        self._grid[
            (
                observation.service,
                observation.level2,
                observation.column,
                observation.cell,
            )
        ].add(observation.platform)
        if observation.party.is_third_party:
            destinations = self._per_destination.setdefault(
                (observation.service, observation.column), {}
            )
            destinations.setdefault(observation.fqdn, set()).add(
                observation.level3
            )
        self._party_by_fqdn[(observation.service, observation.fqdn)] = observation.party

    def extend(self, observations: list[FlowObservation]) -> None:
        for observation in observations:
            self.add(observation)

    def register_party(self, service: str, fqdn: str, party: PartyLabel) -> None:
        """Record a destination's party label without a flow observation.

        Opaque (undecryptable) contacts never produce flows but still
        count for the destination census; registration never overrides
        a label that an observed flow already set.
        """
        self._party_by_fqdn.setdefault((service, fqdn), party)

    def merge(self, other: "FlowTable") -> None:
        """Fold another table (e.g. one shard's result) into this one.

        Equivalent to replaying ``other``'s observations through
        :meth:`add` and then registering its party labels — the
        roll-ups are merged structurally instead (set unions per grid
        cell and destination), which skips re-deriving each
        observation's level-2 category and flow cell.  Party labels
        keep :meth:`add`'s semantics: labels set by ``other``'s
        observations override, registered-only labels do not.
        """
        self._observations.extend(other._observations)
        for key, platforms in other._grid.items():
            self._grid[key].update(platforms)
        for key, destinations in other._per_destination.items():
            mine = self._per_destination.setdefault(key, {})
            for fqdn, types in destinations.items():
                mine.setdefault(fqdn, set()).update(types)
        for observation in other._observations:
            self._party_by_fqdn[
                (observation.service, observation.fqdn)
            ] = observation.party
        for key, party in other._party_by_fqdn.items():
            self._party_by_fqdn.setdefault(key, party)

    def __len__(self) -> int:
        return len(self._observations)

    def observations(self) -> list[FlowObservation]:
        return list(self._observations)

    # -- paper-facing aggregates ---------------------------------------

    def unique_flows(self) -> set[tuple[Level3, str]]:
        """Unique <data type, destination> pairs (paper: 5,508)."""
        return {observation.flow_pair for observation in self._observations}

    def unique_data_types(self) -> set[str]:
        """Unique raw data types observed in flows."""
        return {o.raw_key for o in self._observations if o.raw_key}

    def services(self) -> list[str]:
        return sorted({o.service for o in self._observations})

    def presence(
        self,
        service: str,
        level2: Level2,
        column: TraceColumn,
        cell: FlowCell,
    ) -> Presence:
        """The Table 4 symbol for one grid cell.

        Desktop observations merge into the web side, as the paper
        merges desktop-app traces with the website platform.
        """
        platforms = self._grid.get((service, level2, column, cell), set())
        web = bool({Platform.WEB, Platform.DESKTOP} & platforms)
        mobile = Platform.MOBILE in platforms
        return Presence.from_platforms(web=web, mobile=mobile)

    def grid_for(self, service: str) -> dict[tuple[Level2, TraceColumn, FlowCell], Presence]:
        """The full Table 4 row block for one service."""
        from repro.model import ALL_COLUMNS

        out = {}
        for level2 in Level2:
            for column in ALL_COLUMNS:
                for cell in FlowCell:
                    out[(level2, column, cell)] = self.presence(
                        service, level2, column, cell
                    )
        return out

    def observed_level2(self, service: str | None = None) -> set[Level2]:
        return {
            o.level2
            for o in self._observations
            if service is None or o.service == service
        }

    def observed_level3(self, service: str | None = None) -> set[Level3]:
        return {
            o.level3
            for o in self._observations
            if service is None or o.service == service
        }

    # -- linkability inputs ---------------------------------------------

    def third_party_type_sets(
        self, service: str, column: TraceColumn
    ) -> dict[str, set[Level3]]:
        """Per-third-party data type sets for one service and column,
        fqdns in first-seen order."""
        return {
            fqdn: set(types)
            for fqdn, types in self._per_destination.get(
                (service, column), {}
            ).items()
        }

    def party_of(self, service: str, fqdn: str) -> PartyLabel | None:
        return self._party_by_fqdn.get((service, fqdn))
