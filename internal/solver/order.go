package solver

import (
	"avtmor/internal/sparse"
)

// Fill-reducing preorder: reverse Cuthill–McKee over the symmetrized
// pattern of A. Circuit matrices are near-banded once nodes are numbered
// along the physical topology, and RCM recovers that numbering for
// arbitrary input orderings, keeping the LU fill of ladder/grid
// structures close to the O(band·n) minimum.
//
// The adjacency is held flat (CSR-style offsets into one index slab)
// and the per-node degree sorts are in-place insertion sorts, so the
// whole preorder costs a handful of allocations regardless of n — it
// runs inside every sparse factor step, which the batch solve path
// wants allocation-lean.

// rcmOrder returns a permutation p such that factoring columns in the
// order p[0], p[1], … keeps the profile of A[p, p] small.
func rcmOrder(a *sparse.CSR) []int {
	n := a.Rows
	// Pass 1: count the directed endpoints of A + Aᵀ minus the diagonal
	// (duplicates included; they are deduped in place below).
	ptr := make([]int, n+1)
	for r := 0; r < n; r++ {
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			if c := a.ColIdx[k]; c != r {
				ptr[r+1]++
				ptr[c+1]++
			}
		}
	}
	for u := 0; u < n; u++ {
		ptr[u+1] += ptr[u]
	}
	// Pass 2: scatter neighbors in the same row-scan order the edge
	// list used to be built in. (Adjacency construction order is
	// preserved exactly; the degree sort below is a stable insertion
	// sort, so equal-degree tie-breaking — and with it the permutation
	// on tie-heavy graphs — may differ from the earlier unstable
	// sort.Slice. Both are valid RCM orders; nothing in the repo
	// depends on the old byte-level choice.)
	flat := make([]int32, ptr[n])
	next := make([]int, n)
	copy(next, ptr[:n])
	for r := 0; r < n; r++ {
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			if c := a.ColIdx[k]; c != r {
				flat[next[r]] = int32(c)
				next[r]++
				flat[next[c]] = int32(r)
				next[c]++
			}
		}
	}
	// Dedup each neighbor list in place (first occurrence wins), then
	// record degrees. end[u] is the deduped list's upper bound.
	end := make([]int, n)
	seen := make([]int, n)
	for i := range seen {
		seen[i] = -1
	}
	deg := make([]int, n)
	for u := 0; u < n; u++ {
		w := ptr[u]
		for k := ptr[u]; k < next[u]; k++ {
			v := int(flat[k])
			if seen[v] != u {
				seen[v] = u
				flat[w] = int32(v)
				w++
			}
		}
		end[u] = w
		deg[u] = w - ptr[u]
	}
	// Order each list by neighbor degree (stable insertion sort — the
	// lists are a few entries for circuit matrices).
	for u := 0; u < n; u++ {
		list := flat[ptr[u]:end[u]]
		for i := 1; i < len(list); i++ {
			v := list[i]
			j := i - 1
			for j >= 0 && deg[list[j]] > deg[v] {
				list[j+1] = list[j]
				j--
			}
			list[j+1] = v
		}
	}
	order := make([]int, 0, n)
	placed := make([]bool, n)
	queue := make([]int, 0, n)
	dist := make([]int32, n) // pseudoPeripheral scratch, stamped by visit
	visit := make([]int, n)
	for i := range visit {
		visit[i] = -1
	}
	visitID := 0
	for {
		// Start the next component at a minimum-degree unplaced node,
		// pushed toward the periphery by one extra BFS.
		start := -1
		for u := 0; u < n; u++ {
			if !placed[u] && (start < 0 || deg[u] < deg[start]) {
				start = u
			}
		}
		if start < 0 {
			break
		}
		start = pseudoPeripheral(flat, ptr, end, deg, placed, start, queue, dist, visit, &visitID)
		queue = append(queue[:0], start)
		placed[start] = true
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			order = append(order, u)
			for k := ptr[u]; k < end[u]; k++ {
				if v := int(flat[k]); !placed[v] {
					placed[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	// Reverse (the "R" of RCM).
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// pseudoPeripheral walks to an approximate end of the component: the
// lowest-degree node of the last BFS level, iterated until the
// eccentricity stops growing. queue (capacity n), dist and visit are
// caller-owned scratch: each BFS walks queue from a head index, and
// dist/visit are stamp-cleared per BFS, so nothing is reallocated.
func pseudoPeripheral(flat []int32, ptr, end, deg []int, placed []bool, start int, queue []int, dist []int32, visit []int, visitID *int) int {
	best, bestEcc := start, -1
	for iter := 0; iter < 4; iter++ {
		*visitID++
		id := *visitID
		visit[best] = id
		dist[best] = 0
		queue = append(queue[:0], best)
		last, ecc := best, int32(0)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for k := ptr[u]; k < end[u]; k++ {
				v := int(flat[k])
				if placed[v] || visit[v] == id {
					continue
				}
				visit[v] = id
				dist[v] = dist[u] + 1
				queue = append(queue, v)
				if dist[v] > ecc || (dist[v] == ecc && deg[v] < deg[last]) {
					ecc, last = dist[v], v
				}
			}
		}
		if int(ecc) <= bestEcc {
			break
		}
		best, bestEcc = last, int(ecc)
	}
	return best
}
