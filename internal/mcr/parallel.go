package mcr

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"mintc/internal/obs"
)

// This file is the chunked relaxation engine the probe switches to
// past chunkedCutoff nodes: the frontier (or, on dense rounds, the
// whole node range) is split into fixed-size chunks, each chunk is
// relaxed Gauss–Seidel-style against a lane-local overlay of the
// round-start potentials, and the chunks' proposals are committed by a
// single serial merge in chunk order.
//
// Determinism is by construction, not by locking discipline:
//
//   - chunk boundaries depend only on the frontier and the chunk size,
//     never on the worker count;
//   - a chunk reads the round-start global potentials plus its own
//     local updates — never another chunk's — so its proposal list is
//     a pure function of (chunk contents, round-start state);
//   - the merge replays proposals in chunk order, first-touch order
//     within a chunk, with the same max/eps rule throughout.
//
// Any worker count therefore commits bit-identical potentials, the
// same pred graph, and the same next frontier in the same order; one
// worker IS the serial oracle, running the identical schedule.
//
// Gauss–Seidel inside a chunk is what keeps long dependency chains
// (the giant-ring worst case) moving: a wavefront crosses a whole
// chunk per round instead of one edge per round, so rounds-to-converge
// is about chainLength/chunkSize instead of chainLength.

const (
	// defaultChunkedCutoff is the node count at which probes leave the
	// per-node serial worklist for the chunked engine. Below it the
	// chunk bookkeeping costs more than it saves; above it the chunked
	// schedule wins even single-threaded on chain-heavy graphs.
	defaultChunkedCutoff = 4096
	// defaultChunkSize is the number of sources per chunk. It bounds
	// both the merge batches and the rounds a dependency chain needs
	// (~nodes/chunkSize), while staying small enough that a dense round
	// still fans out across every worker.
	defaultChunkSize = 8192
)

// probeLane is one worker's private relaxation state: an epoch-stamped
// overlay of the global potentials (dist/pred valid where gen ==
// epoch), the first-touch order of overlaid nodes, and the proposal
// log the serial merge replays. Lanes persist on the builder across
// rounds and probes; only the epoch moves.
type probeLane struct {
	dist  []float64
	pred  []int32
	gen   []uint32
	epoch uint32
	dirty []int32
	log   []lanePost
	relax int64
}

// lanePost is one committed-candidate entry of a lane's proposal log:
// the final local potential and predecessor edge of a node some chunk
// improved.
type lanePost struct {
	node     int32
	predEdge int32
	dist     float64
}

// chunkRef locates one chunk's proposals inside its lane's log.
type chunkRef struct {
	lane         int32
	logLo, logHi int32
}

// nextEpoch starts a fresh overlay epoch (O(n) wipe only at the uint32
// wrap, mirroring builder.bumpEpoch).
func (ln *probeLane) nextEpoch() {
	if ln.epoch == math.MaxUint32 {
		for i := range ln.gen {
			ln.gen[i] = 0
		}
		ln.epoch = 0
	}
	ln.epoch++
}

// localDist reads a node's potential through the lane overlay.
func (ln *probeLane) localDist(v int32, global []float64) float64 {
	if ln.gen[v] == ln.epoch {
		return ln.dist[v]
	}
	return global[v]
}

func (b *builder) chunkedCutoffVal() int {
	if b.chunkCutoff != 0 {
		return b.chunkCutoff
	}
	return defaultChunkedCutoff
}

func (b *builder) chunkSizeVal() int {
	if b.chunkSizeOver > 0 {
		return b.chunkSizeOver
	}
	return defaultChunkSize
}

func (b *builder) probeWorkersVal() int {
	if b.probeWorkers > 0 {
		return b.probeWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// ensureLanes grows the persistent lane pool to k lanes.
func (b *builder) ensureLanes(k int) {
	for len(b.lanes) < k {
		b.lanes = append(b.lanes, &probeLane{
			dist: make([]float64, b.n),
			pred: make([]int32, b.n),
			gen:  make([]uint32, b.n),
		})
	}
}

// drainChunked is the chunked round loop: the counterpart of
// drainSerial above the size cutoff, with the same witness-scan policy
// and the same round-n+1 saturation bound (each chunked round is at
// least one full Bellman–Ford pass over the frontier, so the bound's
// ≤ n−1-edge best-walk argument is unchanged). Returns the witness
// cycle's edge indices, nil when the worklist drained (feasible), or
// errDenseFallback.
func (b *builder) drainChunked(ctx context.Context, tc float64, relaxations *int64, rec *obs.Rec) ([]int32, error) {
	n := b.n
	cur, next := b.queue, b.queue2[:0]
	defer func() { b.queue, b.queue2 = cur[:0], next[:0] }()
	chunkSize := b.chunkSizeVal()
	maxWorkers := b.probeWorkersVal()
	checkRound := scanStartRound
	var rounds, parRounds int64
	defer func() {
		rec.Add(obs.ProbeRounds, rounds)
		rec.Add(obs.ProbeParallelRounds, parRounds)
	}()
	for ; len(cur) > 0; rounds++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if int(rounds)+1 > checkRound {
			cyc, cerr := b.bestWitness(ctx, tc)
			if cerr != nil {
				return nil, cerr
			}
			if cyc != nil {
				return cyc, nil
			}
			if int(rounds)+1 > n+1 {
				return nil, errDenseFallback
			}
			if checkRound *= 2; checkRound > n+1 {
				checkRound = n + 1
			}
		}
		// Clear the frontier's worklist bits up front; the merge re-adds
		// every node whose committed potential improved.
		for _, u := range cur {
			b.clearInQueue(u)
		}
		dense := len(cur)*4 >= n
		domain := len(cur)
		if dense {
			domain = n
		}
		numChunks := (domain + chunkSize - 1) / chunkSize
		workers := maxWorkers
		if workers > numChunks {
			workers = numChunks
		}
		if workers < 1 {
			workers = 1
		}
		b.ensureLanes(workers)
		if cap(b.chunkRefs) < numChunks {
			b.chunkRefs = make([]chunkRef, numChunks)
		}
		refs := b.chunkRefs[:numChunks]
		process := func(ln *probeLane, lane int32, k int) {
			lo := k * chunkSize
			hi := lo + chunkSize
			if hi > domain {
				hi = domain
			}
			logLo := int32(len(ln.log))
			if dense {
				b.relaxChunkDense(ln, tc, lo, hi)
			} else {
				b.relaxChunkSparse(ln, tc, cur[lo:hi])
			}
			refs[k] = chunkRef{lane: lane, logLo: logLo, logHi: int32(len(ln.log))}
		}
		if workers == 1 {
			ln := b.lanes[0]
			for k := 0; k < numChunks; k++ {
				process(ln, 0, k)
			}
		} else {
			var nextChunk int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(ln *probeLane, lane int32) {
					defer wg.Done()
					for {
						k := int(atomic.AddInt64(&nextChunk, 1)) - 1
						if k >= numChunks {
							return
						}
						process(ln, lane, k)
					}
				}(b.lanes[w], int32(w))
			}
			wg.Wait()
			parRounds++
		}
		// Serial merge in chunk order: proposals from chunk k are
		// considered before any from chunk k+1 whatever lane computed
		// them, so the committed potentials, the pred graph, and the
		// next frontier's order are independent of scheduling.
		for k := range refs {
			r := refs[k]
			ln := b.lanes[r.lane]
			for _, u := range ln.log[r.logLo:r.logHi] {
				if u.dist > b.dist[u.node]+eps {
					b.dist[u.node] = u.dist
					b.pred[u.node] = u.predEdge
					if !b.inQueue(int(u.node)) {
						b.setInQueue(int(u.node))
						next = append(next, u.node)
					}
				}
			}
		}
		for _, ln := range b.lanes[:workers] {
			*relaxations += ln.relax
			ln.relax = 0
			ln.log = ln.log[:0]
		}
		cur, next = next, cur[:0]
	}
	return nil, nil
}

// relaxChunkSparse relaxes one frontier chunk into the lane overlay:
// Gauss–Seidel within the chunk (a source later in the chunk sees
// updates an earlier source made), Jacobi across chunks (only
// round-start global potentials are read for nodes the lane has not
// overlaid). Both chunk kernels stream a source's arcs from the
// out-order arrays (outTo/outA/outB, see ensureScratch) and record the
// edge index from outEdge as the predecessor, so they relax exactly
// the arcs, in exactly the order and arithmetic, of the edge list.
func (b *builder) relaxChunkSparse(ln *probeLane, tc float64, sources []int32) {
	ln.nextEpoch()
	ln.dirty = ln.dirty[:0]
	for _, u := range sources {
		du := ln.localDist(u, b.dist)
		if math.IsInf(du, -1) {
			continue
		}
		r0, r1 := b.outStart[u], b.outStart[u+1]
		tos := b.outTo[r0:r1]
		as := b.outA[r0:r1]
		bs := b.outB[r0:r1]
		eis := b.outEdge[r0:r1]
		for i, to := range tos {
			if d := du + as[i] + bs[i]*tc; d > ln.localDist(to, b.dist)+eps {
				if ln.gen[to] != ln.epoch {
					ln.gen[to] = ln.epoch
					ln.dirty = append(ln.dirty, to)
				}
				ln.dist[to] = d
				ln.pred[to] = eis[i]
				ln.relax++
			}
		}
	}
	ln.flushDirty()
}

// relaxChunkDense relaxes one contiguous node-id chunk (every finite
// source, frontier or not — the chunked form of the serial drain's
// dense round). Node ids inside the chunk are processed in increasing
// order, so a dependency chain laid out along the numbering (the ring
// circuits, whose departure nodes are allocated in ring order) crosses
// the whole chunk in one round.
func (b *builder) relaxChunkDense(ln *probeLane, tc float64, lo, hi int) {
	ln.nextEpoch()
	ln.dirty = ln.dirty[:0]
	for u := int32(lo); u < int32(hi); u++ {
		du := ln.localDist(u, b.dist)
		if math.IsInf(du, -1) {
			continue
		}
		r0, r1 := b.outStart[u], b.outStart[u+1]
		tos := b.outTo[r0:r1]
		as := b.outA[r0:r1]
		bs := b.outB[r0:r1]
		eis := b.outEdge[r0:r1]
		for i, to := range tos {
			if d := du + as[i] + bs[i]*tc; d > ln.localDist(to, b.dist)+eps {
				if ln.gen[to] != ln.epoch {
					ln.gen[to] = ln.epoch
					ln.dirty = append(ln.dirty, to)
				}
				ln.dist[to] = d
				ln.pred[to] = eis[i]
				ln.relax++
			}
		}
	}
	ln.flushDirty()
}

// flushDirty appends the chunk's final proposals to the lane log in
// first-touch order (the order the merge replays).
func (ln *probeLane) flushDirty() {
	for _, v := range ln.dirty {
		ln.log = append(ln.log, lanePost{node: v, predEdge: ln.pred[v], dist: ln.dist[v]})
	}
}
