"""Reference implementations the network analytics are checked against.

``brute_betweenness`` enumerates every simple path; ``heapq_betweenness`` is
the scalar Brandes (one heap-based Dijkstra per source), the bit-level
reference for the batched kernel in ``countnet.network``. Both take a dense adjacency whose entry (i, j) weighs the edge j -> i.
``rank_nodes`` is the scalar ranking that ``rank_distribution`` tallies.
"""

import heapq

import numpy as np

from countnet.network import BETWEENNESS_WEIGHT_FLOOR


def rank_nodes(scores: np.ndarray) -> np.ndarray:
    """Node indices in rank order: descending score, ties by node index."""
    return np.lexsort((np.arange(scores.shape[0]), -scores))


def brute_betweenness(adjacency: np.ndarray) -> np.ndarray:
    """Exhaustive-enumeration oracle: all simple paths, prefix-sum lengths."""
    m = adjacency.shape[0]
    off = adjacency.copy()
    np.fill_diagonal(off, 0.0)
    edges = {
        (j, i): 1.0 / off[i, j]
        for i in range(m)
        for j in range(m)
        if i != j and off[i, j] > BETWEENNESS_WEIGHT_FLOOR
    }
    out = {j: [i for (jj, i) in edges if jj == j] for j in range(m)}
    scores = np.zeros(m)
    for s in range(m):
        for t in range(m):
            if s == t:
                continue
            paths = []

            def walk(node, dist, visited, trail):
                if node == t:
                    paths.append((dist, tuple(trail)))
                    return
                for nxt in out[node]:
                    if nxt not in visited:
                        walk(nxt, dist + edges[(node, nxt)], visited | {nxt}, trail + [nxt])

            walk(s, 0.0, {s}, [s])
            if not paths:
                continue
            best = min(d for d, _ in paths)
            shortest = [trail for d, trail in paths if d == best]
            sigma = len(shortest)
            for trail in shortest:
                for v in trail[1:-1]:
                    scores[v] += 1.0 / sigma
    return scores


def heapq_betweenness(off: np.ndarray) -> np.ndarray:
    """Brandes accumulation over Dijkstra trees; edge j->i has weight off[i, j]."""
    m = off.shape[0]
    out_edges: list[list[tuple[int, float]]] = [[] for _ in range(m)]
    for i in range(m):
        for j in range(m):
            w = off[i, j]
            if i != j and w > BETWEENNESS_WEIGHT_FLOOR:
                out_edges[j].append((i, 1.0 / w))
    scores = np.zeros(m)
    for s in range(m):
        stack: list[int] = []
        preds: list[list[int]] = [[] for _ in range(m)]
        sigma = np.zeros(m)
        sigma[s] = 1.0
        dist = np.full(m, np.inf)
        seen = {s: 0.0}
        counter = 0
        heap: list[tuple[float, int, int, int]] = [(0.0, counter, s, s)]
        while heap:
            d, _, pred, v = heapq.heappop(heap)
            if np.isfinite(dist[v]):
                continue
            sigma[v] += sigma[pred]
            stack.append(v)
            dist[v] = d
            for w, length in out_edges[v]:
                vw = d + length
                if not np.isfinite(dist[w]) and (w not in seen or vw < seen[w]):
                    seen[w] = vw
                    counter += 1
                    heapq.heappush(heap, (vw, counter, v, w))
                    sigma[w] = 0.0
                    preds[w] = [v]
                elif vw == seen.get(w):
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = np.zeros(m)
        while stack:
            w = stack.pop()
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                scores[w] += delta[w]
    return scores
