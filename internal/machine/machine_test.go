package machine

import (
	"testing"
	"testing/quick"

	"o2k/internal/sim"
)

func TestDefaultValidates(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8, 64, 512, 1024} {
		cfg := Default(p)
		if err := cfg.Validate(); err != nil {
			t.Errorf("Default(%d) invalid: %v", p, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Procs = 0 },
		func(c *Config) { c.Procs = MaxProcs + 1 },
		func(c *Config) { c.ProcsPerNode = 0 },
		func(c *Config) { c.LineBytes = 96 },
		func(c *Config) { c.LineBytes = 0 },
		func(c *Config) { c.PageBytes = 64 }, // < LineBytes
		func(c *Config) { c.CacheBytes = 16 },
		func(c *Config) { c.LocalMissNS = -1 },
	}
	for i, mut := range bad {
		cfg := Default(4)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	cfg := Default(4)
	cfg.Procs = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted invalid config")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	cfg := Default(4)
	cfg.Procs = 0
	MustNew(cfg)
}

func TestTopology(t *testing.T) {
	m := MustNew(Default(64)) // 32 nodes
	if m.Nodes() != 32 {
		t.Fatalf("Nodes = %d, want 32", m.Nodes())
	}
	if m.Node(0) != 0 || m.Node(1) != 0 || m.Node(2) != 1 || m.Node(63) != 31 {
		t.Fatal("Node mapping wrong")
	}
	// Same node: 0 hops.
	if m.Hops(0, 1) != 0 {
		t.Errorf("Hops(0,1) = %d, want 0", m.Hops(0, 1))
	}
	// Adjacent hypercube nodes: node 0 vs node 1 => 1 hop.
	if m.Hops(0, 2) != 1 {
		t.Errorf("Hops(0,2) = %d, want 1", m.Hops(0, 2))
	}
	// Opposite corners: node 0 vs node 31 = 0b11111 => 5 hops.
	if m.Hops(0, 62) != 5 {
		t.Errorf("Hops(0,62) = %d, want 5", m.Hops(0, 62))
	}
}

func TestHopsSymmetricNonNegative(t *testing.T) {
	m := MustNew(Default(48))
	f := func(a, b uint8) bool {
		p := int(a) % 48
		q := int(b) % 48
		h := m.Hops(p, q)
		return h >= 0 && h == m.Hops(q, p) && (p != q || h == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemAccessOrdering(t *testing.T) {
	m := MustNew(Default(64))
	// The miss latency numa charges: NodeLat indexed by the two procs' nodes.
	memAccess := func(proc, homeProc int) sim.Time {
		return m.NodeLat()[int(m.ProcNode()[proc])*m.Nodes()+int(m.ProcNode()[homeProc])]
	}
	local := memAccess(0, 1) // same node
	near := memAccess(0, 2)  // 1 hop
	far := memAccess(0, 62)  // 5 hops
	if !(local < near && near < far) {
		t.Fatalf("latency ordering violated: local=%v near=%v far=%v", local, near, far)
	}
	if local != m.Cfg.LocalMissNS {
		t.Errorf("local access = %v, want LocalMissNS", local)
	}
	if near != m.Cfg.RemoteMissNS {
		t.Errorf("1-hop access = %v, want RemoteMissNS", near)
	}
	if far != m.Cfg.RemoteMissNS+4*m.Cfg.RemoteHopNS {
		t.Errorf("5-hop access = %v", far)
	}
}

func TestWireScalesWithSizeAndHops(t *testing.T) {
	m := MustNew(Default(16))
	if m.Wire(100, 2) <= m.Wire(100, 1) {
		t.Error("wire time should grow with hops")
	}
	if m.Wire(1000, 1) <= m.Wire(100, 1) {
		t.Error("wire time should grow with size")
	}
	want := m.Cfg.WireBaseNS + 2*m.Cfg.WireHopNS + 100*m.Cfg.WirePerByteNS
	if got := m.Wire(100, 2); got != want {
		t.Errorf("Wire(100,2) = %v, want %v", got, want)
	}
}

func TestLogStages(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 64: 6}
	m := MustNew(Default(4))
	for n, want := range cases {
		if got := m.LogStages(n); got != want {
			t.Errorf("LogStages(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestCostHierarchy(t *testing.T) {
	// The relative ordering the whole study depends on.
	cfg := Default(64)
	if !(cfg.CacheHitNS < cfg.LocalMissNS && cfg.LocalMissNS < cfg.RemoteMissNS) {
		t.Error("memory hierarchy ordering violated")
	}
	if !(cfg.ShmPutOvNS < cfg.MPSendOvNS) {
		t.Error("SHMEM put must be cheaper than MP send")
	}
	if !(cfg.RemoteMissNS < cfg.ShmPutOvNS+cfg.WireBaseNS) {
		t.Error("hardware load/store should beat one-sided software transfer")
	}
	var zero sim.Time
	if cfg.OpNS <= zero {
		t.Error("OpNS must be positive")
	}
}
