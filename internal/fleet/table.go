package fleet

import (
	"errors"
	"sync/atomic"

	"repro/internal/sim"
)

// StreamTable is one chunk of the slot arena's struct-of-arrays store:
// the mutable per-stream simulation state — clocks and cycle counters
// (sim.State), trace aggregates (sim.Trace), and in stats mode the
// StatsSink accumulators and their histograms — lives in contiguous
// slabs, one entry per slot, instead of N individually heap-allocated
// objects. A worker sweeping its claim blocks therefore walks arrays in
// index order and stays in cache; the sim.Stream views in the table are
// exactly the serial runner's streams, pointed at the slabs, so the SoA
// layout changes memory behaviour, never results.
type StreamTable struct {
	names   []string
	runners []sim.Runner    // per-slot runner configs (copies; sinks rewritten)
	streams []sim.Stream    // views over the slabs below; invalid where errs[k] != nil
	states  []sim.State     // hot scalars: clock + cycle counter
	traces  []sim.Trace     // scalar aggregates (and records in retain mode)
	sinks   []sim.StatsSink // stats mode only; len 0 in retain mode
	hist    []int           // shared backing slab for the sink histograms
	errs    []error         // per-slot configuration errors

	stats     bool
	export    func(k int, name string) sim.Sink
	maxLevels int // uniform per-slot histogram window width
}

// errPresetSink rejects a caller-set Runner.Sink in retain mode: Run's
// contract is retained traces, and a caller-set sink would leave
// Trace.Records empty so downstream aggregation would silently read
// zeroes.
var errPresetSink = errors.New("fleet: stream has a Runner.Sink; Run retains traces — use RunStats for sink-based runs")

// newChunk lays out a table of size slots. stats selects the
// zero-retention shape: every slot gets a StatsSink from the table's
// contiguous sink slab with a histogram window of maxLevels cells in one
// shared int slab. export, when non-nil, supplies an extra per-stream
// sink that records are teed into (stats mode only).
func newChunk(size int, stats bool, export func(k int, name string) sim.Sink, maxLevels int) *StreamTable {
	tbl := &StreamTable{
		names:     make([]string, size),
		runners:   make([]sim.Runner, size),
		streams:   make([]sim.Stream, size),
		states:    make([]sim.State, size),
		traces:    make([]sim.Trace, size),
		errs:      make([]error, size),
		stats:     stats,
		export:    export,
		maxLevels: maxLevels,
	}
	if stats {
		tbl.sinks = make([]sim.StatsSink, size)
		tbl.hist = make([]int, size*maxLevels)
	}
	return tbl
}

// BindSlot initialises the given slot for the stream: in stats mode the
// slot's StatsSink gets its histogram window of the shared slab (plus
// any export tee, keyed by the stream's index k in the population); in
// retain mode a caller-set sink is a per-slot error. Configuration
// errors are recorded in the slot, not returned — the stream still
// occupies it until harvested, so one bad stream cannot derail the run.
// The slot must not be bound or mid-execution; the openArena recycles
// slots across its chunk tables. BindSlot never allocates on the stats
// path without an export sink, which is what keeps the engine's steady
// state allocation-free.
func (tbl *StreamTable) BindSlot(slot int, s *Stream, k int) {
	tbl.names[slot] = s.Name
	tbl.runners[slot] = s.Runner
	r := &tbl.runners[slot]
	if tbl.stats {
		base := slot * tbl.maxLevels
		tbl.sinks[slot].Init(tbl.hist[base : base : base+tbl.maxLevels])
		var sink sim.Sink = &tbl.sinks[slot]
		if tbl.export != nil {
			if extra := tbl.export(k, s.Name); extra != nil {
				sink = sim.TeeSink{&tbl.sinks[slot], extra}
			}
		}
		r.Sink = sink
	} else if r.Sink != nil {
		tbl.errs[slot] = errPresetSink
		return
	}
	tbl.errs[slot] = r.InitStream(&tbl.streams[slot], &tbl.states[slot], &tbl.traces[slot])
}

// HarvestSlot copies the slot's outcome into caller-owned result cells
// — trOut for the scalar trace, and in stats mode sinkOut plus a
// histogram window histOut of at least the table's level width — so the
// result aliases nothing in the slabs and harvesting allocates nothing.
// A zero-length histogram copies to nil. Free-slot bookkeeping is the
// caller's: the openArena recycles slots across chunk tables itself.
func (tbl *StreamTable) HarvestSlot(slot int, sr *StreamResult, trOut *sim.Trace, sinkOut *sim.StatsSink, histOut []int) {
	sr.Name = tbl.names[slot]
	sr.Err = tbl.errs[slot]
	if tbl.sinks != nil {
		*sinkOut = tbl.sinks[slot]
		if h := sinkOut.QualityHist; len(h) == 0 {
			sinkOut.QualityHist = nil
		} else {
			w := histOut[:len(h)]
			copy(w, h)
			sinkOut.QualityHist = w
		}
		sr.Stats = sinkOut
	}
	if sr.Err == nil {
		*trOut = tbl.traces[slot]
		sr.Trace = trOut
	}
	tbl.errs[slot] = nil
}

// Per-slot scheduler states of the engine's openArena slots. The
// frontier moves a slot
// empty → ready at Bind and done → empty at harvest; workers move it
// ready → claimed → ready once per batch and store done when the
// stream completes. Every transition goes through the slot's atomic
// status word, so slab publication between the frontier and the workers
// is always a synchronised hand-off.
const (
	slotEmpty int32 = iota
	slotReady
	slotClaimed
	slotDone
)

// cacheLine is the padding unit for the engine's worker-shared hot
// words. 64 bytes covers every amd64/arm64 part the engine targets;
// on parts with 128-byte prefetch pairs the residual sharing is
// between neighbours only, not a whole claim block.
const cacheLine = 64

// slotWord is one slot's scheduler status on its own cache line. With
// packed words two workers' claim blocks would share every 64-byte
// line, and each steal sweep reads them all, so every claim would
// ping-pong the line across cores. One word per line trades 60 bytes of
// padding per slot (slot count is peak concurrency, not population) for
// contention-free sweeps.
type slotWord struct {
	// v is the slot's lifecycle word, shared between the frontier and
	// the workers.
	//detlint:atomic
	v atomic.Int32
	_ [cacheLine - 4]byte
}

// openArena is the engine's slot store: a set of fixed-size StreamTable
// chunks plus flat slot-indirection arrays. Streams are always
// mid-flight in a wave-free engine, so the arena never reallocates a
// slab: growth appends a fresh chunk, and the views of bound slots stay
// valid with no quiesce barrier. The heavy per-slot slabs (runners,
// states, traces, sinks, histograms) track peak concurrency, not the
// population; only the flat
// indirection arrays (a pointer and a few words per slot) are
// pre-sized to the population bound so workers can scan them without
// ever racing a reallocation.
//
// Ownership: chunks, free and the slot arrays beyond the published
// allocated count are the frontier's alone. Workers read slotTbl /
// slotIdx / slotStream only for slots below allocated (published with
// an atomic add) whose status they hold claimed, so every slab access
// is ordered by the status word or the allocated counter.
type openArena struct {
	stats     bool
	export    func(k int, name string) sim.Sink
	maxLevels int

	chunks     []*StreamTable
	slotTbl    []*StreamTable // slot → chunk table
	slotIdx    []int32        // slot → index within its chunk
	slotStream []int32        // slot → bound stream index (frontier writes before the ready store)
	// status holds one cache-line-padded lifecycle word per slot
	// (slotWord); the atomic discipline binds to slotWord.v.
	status []slotWord
	// allocated is the published slot count; workers scan [0, allocated).
	//detlint:atomic
	allocated atomic.Int32
	free      []int32 // recycled-slot stack (frontier only)
}

// openChunkMin is the first chunk's slot count; later chunks double the
// arena, so reaching a peak concurrency of C costs O(log C) chunk
// allocations over the whole run (and zero once a scratch is warm).
const openChunkMin = 8

// reset prepares the arena for a run over a population of n streams.
// Chunks from an earlier run with the same slab shape (stats mode and
// histogram width) are kept and their slots recycled; a shape change
// drops them. The export hook carries no slab state but is read by
// BindSlot from each chunk, so retained chunks must have it replaced
// too — a stale closure would tee records into the previous run's
// sinks.
func (a *openArena) reset(n int, stats bool, export func(int, string) sim.Sink, maxLevels int) {
	if stats != a.stats || maxLevels != a.maxLevels {
		a.chunks = nil
	}
	a.stats, a.export, a.maxLevels = stats, export, maxLevels
	for _, c := range a.chunks {
		c.export = export
	}
	total := 0
	for _, c := range a.chunks {
		total += c.Len()
	}
	want := n
	if total > want {
		want = total
	}
	if cap(a.slotTbl) < want {
		a.slotTbl = make([]*StreamTable, want)
		a.slotIdx = make([]int32, want)
		a.slotStream = make([]int32, want)
		a.status = make([]slotWord, want)
		a.free = make([]int32, 0, want)
	} else {
		a.slotTbl = a.slotTbl[:want]
		a.slotIdx = a.slotIdx[:want]
		a.slotStream = a.slotStream[:want]
		a.status = a.status[:want]
	}
	a.free = a.free[:0]
	slot := 0
	for _, c := range a.chunks {
		for i := 0; i < c.Len(); i++ {
			a.register(slot, c, i)
			slot++
		}
	}
	a.allocated.Store(int32(slot))
}

// ensurePopulation grows the flat indirection arrays to hold at least n
// slots, doubling to amortize. Workers scan these arrays (and the
// status words) up to the published allocated count, so reallocation is
// legal only while the executor is quiescent — the live driver calls
// this under quiesce when its fed population outgrows the arrays. The
// atomic status words are migrated value by value (an atomic.Int32 must
// never be copied as a struct); slots below allocated keep their
// published state, and the free stack needs no migration because only
// the frontier touches it.
func (a *openArena) ensurePopulation(n int) {
	if n <= len(a.slotTbl) {
		return
	}
	c := 2 * len(a.slotTbl)
	if c < n {
		c = n
	}
	if c < openChunkMin {
		c = openChunkMin
	}
	slotTbl := make([]*StreamTable, c)
	slotIdx := make([]int32, c)
	slotStream := make([]int32, c)
	status := make([]slotWord, c)
	copy(slotTbl, a.slotTbl)
	copy(slotIdx, a.slotIdx)
	copy(slotStream, a.slotStream)
	for i := range a.status {
		status[i].v.Store(a.status[i].v.Load())
	}
	a.slotTbl, a.slotIdx, a.slotStream, a.status = slotTbl, slotIdx, slotStream, status
}

// register wires one chunk slot into the flat arrays and the free stack.
// Slots above the published allocated count are invisible to workers
// until the counter advances.
func (a *openArena) register(slot int, c *StreamTable, i int) {
	a.slotTbl[slot] = c
	a.slotIdx[slot] = int32(i)
	a.slotStream[slot] = -1
	a.status[slot].v.Store(slotEmpty)
	a.free = append(a.free, int32(slot))
}

// grow appends a doubling chunk and publishes its slots. Called by the
// frontier only when the free stack is empty; the population bound
// guarantees the indirection arrays have room (at most one slot per
// stream is ever bound).
func (a *openArena) grow() {
	total := int(a.allocated.Load())
	size := total
	if size < openChunkMin {
		size = openChunkMin
	}
	if rem := len(a.slotTbl) - total; size > rem {
		size = rem
	}
	if size <= 0 {
		panic("fleet: open arena over population capacity")
	}
	c := newChunk(size, a.stats, a.export, a.maxLevels)
	a.chunks = append(a.chunks, c)
	for i := 0; i < size; i++ {
		a.register(total+i, c, i)
	}
	a.allocated.Add(int32(size))
}

// bind claims a slot (growing if none is free), binds the stream into
// it and returns the slot id with its status still empty — the caller
// publishes it ready once the admission bookkeeping is done, or
// harvests it immediately for bind-time failures.
func (a *openArena) bind(s *Stream, k int) int32 {
	if len(a.free) == 0 {
		a.grow()
	}
	slot := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	a.slotStream[slot] = int32(k)
	a.slotTbl[slot].BindSlot(int(a.slotIdx[slot]), s, k)
	return slot
}

// release recycles a harvested slot.
func (a *openArena) release(slot int32) {
	a.status[slot].v.Store(slotEmpty)
	a.slotStream[slot] = -1
	a.free = append(a.free, slot)
}

// err reports the slot's bind-time configuration error, if any.
func (a *openArena) err(slot int32) error {
	return a.slotTbl[slot].errs[a.slotIdx[slot]]
}

// Len returns the slot count.
func (tbl *StreamTable) Len() int { return len(tbl.streams) }
