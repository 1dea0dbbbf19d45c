package machine

// Alternative machine profiles. The study's conclusions are claims about a
// *class* of machines (tightly coupled ccNUMA); these presets let the
// experiments re-ask the questions on the neighbouring classes the follow-up
// papers explored — message-optimized MPPs and clusters of SMPs. All values
// are stylized profiles of the era's hardware, not calibrated models.

// T3E returns a Cray T3E-like profile: no hardware cache coherence worth
// modelling across nodes (remote data is accessed through E-registers /
// SHMEM), a very fast network with low put/get overhead, and message
// passing with lighter software overhead than SGI's MPI.
func T3E(procs int) Config {
	c := Default(procs)
	c.ProcsPerNode = 1

	// Remote loads are not cached; every remote access pays the network.
	c.RemoteMissNS = 900
	c.RemoteHopNS = 30

	c.WireBaseNS = 150
	c.WireHopNS = 30
	c.WirePerByteNS = 2 // ~500 MB/s links

	c.MPSendOvNS = 1500
	c.MPRecvOvNS = 1500
	c.MPPerByteNS = 3
	c.MPBarrierHop = 2500

	c.ShmPutOvNS = 250 // E-register puts were famously cheap
	c.ShmGetOvNS = 400
	c.ShmPerByteNS = 2
	c.ShmBarrierHop = 400 // hardware barrier network

	// CC-SAS on a T3E is emulated and slow: model it as very expensive
	// remote memory and costly synchronization.
	c.SasLockNS = 2500
	c.SasBarrierHop = 2000
	c.SasBarrierBase = 1500
	c.CohInvalPerLine = 120
	return c
}

// SMP returns an ideal bus-based symmetric multiprocessor: uniform memory
// (no NUMA penalty), cheap coherence and synchronization — CC-SAS's home
// turf. Only modest processor counts are physically plausible, but the
// model does not enforce that.
func SMP(procs int) Config {
	c := Default(procs)
	c.ProcsPerNode = procs // one "node": every access is local
	c.RemoteMissNS = c.LocalMissNS
	c.RemoteHopNS = 0
	c.CohInvalPerLine = 25
	c.SasLockNS = 400
	c.SasBarrierHop = 250
	c.SasBarrierBase = 150
	// Messaging runs over shared memory: cheaper than a network MPI but
	// still a software protocol.
	c.MPSendOvNS = 2000
	c.MPRecvOvNS = 2000
	c.MPMinWireNS = 100
	c.WireBaseNS = 80
	c.WireHopNS = 0
	c.WirePerByteNS = 1
	c.ShmPutOvNS = 400
	c.ShmGetOvNS = 500
	c.ShmPerByteNS = 1
	return c
}

// ClusterOfSMPs returns a late-90s cluster profile: 4-processor SMP nodes
// joined by a commodity network — fast shared memory inside a node, slow
// high-overhead messaging between nodes. This is the machine class of the
// authors' follow-up study ("Message Passing vs. Shared Address Space on a
// Cluster of SMPs").
func ClusterOfSMPs(procs int) Config {
	c := Default(procs)
	c.ProcsPerNode = 4
	// Inside a node: SMP-like.
	c.LocalMissNS = 280
	c.CohInvalPerLine = 30
	// Across nodes: commodity interconnect, no hardware coherence — remote
	// "loads" are really software shared memory, painfully slow.
	c.RemoteMissNS = 4000
	c.RemoteHopNS = 250
	c.WireBaseNS = 4000
	c.WireHopNS = 150
	c.WirePerByteNS = 10 // ~100 MB/s
	c.MPSendOvNS = 9000
	c.MPRecvOvNS = 9000
	c.MPPerByteNS = 9
	c.MPBarrierHop = 20000
	c.ShmPutOvNS = 5000 // one-sided emulated over the NIC
	c.ShmGetOvNS = 7000
	c.ShmPerByteNS = 9
	c.ShmBarrierHop = 12000
	c.SasLockNS = 6000
	c.SasBarrierHop = 8000
	c.SasBarrierBase = 4000
	return c
}
