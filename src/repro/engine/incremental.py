"""The file-dependency relation and its weakly-connected components.

``repro serve`` re-checks a workspace one *stratum* at a time: a group
of files that can influence each other's warnings.  The relation here
is the plain set of ``(importer, provider)`` file pairs the daemon
extracts from scope artifacts; a stratum is a weakly-connected
component of it, recomputed from scratch by union-find whenever it is
asked for (a workspace is ~10^2 files, so that is microseconds).

No transitive closure is maintained: strata need connectivity, not
reachability, and nothing ever read the reachability pairs.  The one
closure in this system is the engine's partition-pair fixpoint, which
each moved stratum re-runs through the ordinary batch pipeline (see
DESIGN.md section 16).
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Set, Tuple

Node = Hashable
Edge = Tuple[Node, Node]


class IncrementalClosure:
    """The current dependency edge set, replaced wholesale per edit.

    The name is historical (the committed benchmark times ``apply`` and
    ``components`` under it); what it holds is a set of pairs.
    """

    def __init__(self) -> None:
        self.edges: Set[Edge] = set()

    def apply(self, edges: Iterable[Edge]) -> Tuple[int, int]:
        """Adopt ``edges`` as the relation; return how many edges
        entered and how many left, ``(added, removed)``."""
        new = set(edges)
        added, removed = len(new - self.edges), len(self.edges - new)
        self.edges = new
        return added, removed

    def components(self, nodes: Iterable[Node]) -> List[Set[Node]]:
        """Partition ``nodes`` plus every endpoint of the relation into
        weakly-connected components, ordered by smallest member (nodes
        must be mutually orderable; the daemon's are file paths)."""
        parent = {node: node for node in nodes}

        def find(node: Node) -> Node:
            root = parent.setdefault(node, node)
            while root != parent[root]:
                root = parent[root]
            while parent[node] != root:  # compress the walked path
                parent[node], node = root, parent[node]
            return root

        for src, dst in self.edges:
            parent[find(src)] = find(dst)
        groups: dict = {}
        for node in parent:
            groups.setdefault(find(node), set()).add(node)
        return sorted(groups.values(), key=min)
