// Package machine models the SGI Origin2000 hardware that the paper's
// experiments ran on: a cache-coherent NUMA multiprocessor built from
// two-processor nodes connected by a hypercube-style CrayLink interconnect.
//
// The model is a set of cost parameters (latencies, overheads, bandwidths)
// plus the node topology. Absolute values default to published Origin2000
// characteristics (250 MHz R10000, 128-byte secondary cache lines, 16 KB
// pages, ~0.3 µs local and ~0.5–1 µs remote memory latency, microsecond-scale
// message-passing software overheads). What the experiments depend on is the
// *relative* ordering — cache hit ≪ local memory ≪ remote memory ≪ software
// messaging — and every knob is exported so the sensitivity studies can sweep
// them.
package machine

import (
	"fmt"
	"math/bits"

	"o2k/internal/sim"
)

// Config holds every tunable of the machine model. The zero value is not
// usable; start from Default.
type Config struct {
	Procs        int // total processors (1..MaxProcs)
	ProcsPerNode int // processors per node board (Origin2000: 2)

	// Processor core.
	OpNS sim.Time // cost of one abstract ALU/FPU operation

	// Memory hierarchy.
	CacheBytes      int      // per-processor cache capacity
	LineBytes       int      // coherence/cache line size
	PageBytes       int      // virtual-memory page size (placement granularity)
	CacheHitNS      sim.Time // load/store hit
	LocalMissNS     sim.Time // miss satisfied by local node memory
	RemoteMissNS    sim.Time // miss satisfied by remote memory, first hop
	RemoteHopNS     sim.Time // additional latency per router hop beyond the first
	CohInvalPerLine sim.Time // time to process one inbound invalidation at a sync point

	// Interconnect for explicit transfers (messages, puts/gets).
	WireBaseNS    sim.Time // fixed network injection latency
	WireHopNS     sim.Time // per-router-hop latency
	WirePerByteNS sim.Time // inverse link bandwidth, ns per byte

	// Message passing (two-sided) software costs.
	MPSendOvNS   sim.Time // per-send software overhead
	MPRecvOvNS   sim.Time // per-receive software overhead (matching, copy setup)
	MPPerByteNS  sim.Time // per-byte cost of the MP stack (copies), on top of wire
	MPMinWireNS  sim.Time // floor wire latency for any message
	MPBarrierHop sim.Time // per-tree-stage cost of an MP barrier/collective step

	// SHMEM (one-sided) costs.
	ShmPutOvNS    sim.Time // initiator overhead of a put
	ShmGetOvNS    sim.Time // initiator overhead of a get (round trip setup)
	ShmPerByteNS  sim.Time // per-byte cost on top of wire
	ShmBarrierHop sim.Time // per-tree-stage cost of a SHMEM barrier

	// Shared address space (CC-SAS) synchronization.
	SasLockNS      sim.Time // uncontended lock acquire+release (remote atomic)
	SasBarrierHop  sim.Time // per-tree-stage cost of a hardware-assisted barrier
	SasBarrierBase sim.Time // fixed barrier entry/exit cost
	PageMigrateNS  sim.Time // OS cost to migrate one page to a new home node
}

// MaxProcs bounds group sizes; the Origin2000 in the study scaled to 64,
// and the largest shipped configuration to 1024 (128 in a single image) —
// the one-thread scheduler and demand-zero cache tags make the full 1024 simulable.
const MaxProcs = 1024

// Default returns the baseline Origin2000-like configuration for p
// processors.
func Default(procs int) Config {
	return Config{
		Procs:        procs,
		ProcsPerNode: 2,

		OpNS: 2, // ~250 MHz superscalar: a couple of sustained ops per 4 ns cycle

		CacheBytes:      4 << 20, // 4 MB L2
		LineBytes:       128,
		PageBytes:       16 << 10,
		CacheHitNS:      3,
		LocalMissNS:     320,
		RemoteMissNS:    480,
		RemoteHopNS:     100,
		CohInvalPerLine: 40,

		WireBaseNS:    260,
		WireHopNS:     100,
		WirePerByteNS: 3, // ~330 MB/s per CrayLink direction

		MPSendOvNS:   3500,
		MPRecvOvNS:   3500,
		MPPerByteNS:  7, // MPI stack copies: ~140 MB/s effective
		MPMinWireNS:  500,
		MPBarrierHop: 7000,

		ShmPutOvNS:    700,
		ShmGetOvNS:    1100,
		ShmPerByteNS:  4, // ~250 MB/s effective for block transfers
		ShmBarrierHop: 1500,

		SasLockNS:      900,
		SasBarrierHop:  600,
		SasBarrierBase: 400,
		PageMigrateNS:  30000, // ~30 µs per 16 KB page (copy + TLB shootdown)
	}
}

// Validate reports a descriptive error if the configuration is unusable.
func (c *Config) Validate() error {
	switch {
	case c.Procs < 1 || c.Procs > MaxProcs:
		return fmt.Errorf("machine: Procs=%d outside [1,%d]", c.Procs, MaxProcs)
	case c.ProcsPerNode < 1:
		return fmt.Errorf("machine: ProcsPerNode=%d must be >=1", c.ProcsPerNode)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("machine: LineBytes=%d must be a positive power of two", c.LineBytes)
	case c.PageBytes < c.LineBytes || c.PageBytes&(c.PageBytes-1) != 0:
		return fmt.Errorf("machine: PageBytes=%d must be a power of two >= LineBytes", c.PageBytes)
	case c.CacheBytes < c.LineBytes:
		return fmt.Errorf("machine: CacheBytes=%d smaller than one line", c.CacheBytes)
	case c.OpNS < 0 || c.CacheHitNS < 0 || c.LocalMissNS < 0 || c.RemoteMissNS < 0:
		return fmt.Errorf("machine: negative latency")
	}
	return nil
}

// Machine is a validated configuration plus derived topology helpers. It is
// immutable after construction and safe for concurrent use.
type Machine struct {
	Cfg   Config
	nodes int

	// Derived lookup tables for the memory-system hot path (internal/numa
	// charges one MemAccess per simulated cache miss, millions per run).
	// They trade a few KB per Machine for replacing the per-access integer
	// divisions and popcounts with two array loads.
	procNode []int32    // node housing each processor
	nodeLat  []sim.Time // nodes×nodes flat: MemAccess latency by (node, node)
}

// New builds a Machine from cfg, or returns an error if cfg is invalid.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nodes := (cfg.Procs + cfg.ProcsPerNode - 1) / cfg.ProcsPerNode
	m := &Machine{Cfg: cfg, nodes: nodes}
	m.procNode = make([]int32, cfg.Procs)
	for p := range m.procNode {
		m.procNode[p] = int32(p / cfg.ProcsPerNode)
	}
	m.nodeLat = make([]sim.Time, nodes*nodes)
	for a := 0; a < nodes; a++ {
		for b := 0; b < nodes; b++ {
			lat := cfg.LocalMissNS
			if a != b {
				h := bits.OnesCount(uint(a ^ b))
				lat = cfg.RemoteMissNS + sim.Time(h-1)*cfg.RemoteHopNS
			}
			m.nodeLat[a*nodes+b] = lat
		}
	}
	return m, nil
}

// MustNew is New but panics on invalid configuration; for tests and tables.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Procs returns the processor count.
func (m *Machine) Procs() int { return m.Cfg.Procs }

// Nodes returns the node-board count.
func (m *Machine) Nodes() int { return m.nodes }

// Node returns the node housing processor p.
func (m *Machine) Node(p int) int { return p / m.Cfg.ProcsPerNode }

// Hops returns the router-hop distance between the nodes of processors p and
// q. The Origin2000 interconnect is a (bristled) hypercube, so for
// power-of-two node counts the distance is the Hamming distance of node IDs;
// non-power-of-two machines embed in the next larger cube.
func (m *Machine) Hops(p, q int) int {
	a, b := m.Node(p), m.Node(q)
	if a == b {
		return 0
	}
	return bits.OnesCount(uint(a ^ b))
}

// ProcNode returns, for every processor, the node housing it — the table the
// numa hot path uses for its local/remote classification. Callers must not
// mutate the returned slice.
func (m *Machine) ProcNode() []int32 { return m.procNode }

// NodeLat returns the flat nodes×nodes table of the latency of one
// cache-missing memory access from a node to a line homed on another (row-major by
// source node). Callers must not mutate the returned slice.
func (m *Machine) NodeLat() []sim.Time { return m.nodeLat }

// Wire returns the pure network transfer time for n bytes over h hops:
// injection + per-hop routing + bandwidth term.
func (m *Machine) Wire(n, h int) sim.Time {
	return m.Cfg.WireBaseNS + sim.Time(h)*m.Cfg.WireHopNS + sim.Time(n)*m.Cfg.WirePerByteNS
}

// LogStages returns ceil(log2(n)), the stage count of tree-structured
// collectives; 0 for n <= 1.
func (m *Machine) LogStages(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}
