package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The speedometer is why end-to-end timings repeat on a shared host. The
// sandbox is a two-vCPU guest whose neighbours come and go: the same pass of
// the same binary takes 9.5 s in a quiet minute and 13 s in a busy one, and a
// whole run can sit inside either. No amount of repetition inside one run
// removes that, so every timed interval is instead weighed against a fixed
// piece of work done beside it: every ~40 ms a dedicated thread runs one
// "unit" — a dependent random walk over a 64 MB table (memory latency), two
// register-only xorshift chains (core speed) and a fresh 1 MB mapping touched
// page by page (page faults) — and records the thread CPU time it took, so
// that waiting for a core inside this guest does not count. A timed interval
// is reported as raw seconds x the mean host speed over that interval, where
// speed = refUnit / unit time: seconds on the reference host, not on whatever
// the host was doing at that moment. The unit is this file's code and never
// the program's, so a change to the program cannot move it.
//
// The mix is deliberate: on this sandbox the register-only part repeats
// within 2 % while the random walk moves 25 % with the neighbours and a pass
// of the simulator moves 7-10 %, i.e. the program feels memory contention
// about a third as much as a pure pointer chase does — hence a unit that is
// about 30 % chase, 55 % arithmetic and 15 % page faults when the host is
// quiet.
const (
	speedoTable = 16 << 20 // uint32 entries: 64 MB, far beyond the 4 MB L2
	speedoChase = 6000     // dependent loads per unit, ~1 ms
	speedoALU   = 1000000  // xorshift rounds per unit, ~2 ms
	speedoMap   = 1 << 20  // bytes mapped and touched per unit, ~0.5 ms
	speedoPause = 36 * time.Millisecond

	// refUnit is one unit's CPU time on the reference sandbox (2 vCPUs,
	// Xeon @ 2.1 GHz) in a quiet hour. It only fixes the scale: speed 1.0 is
	// that host, and reported seconds are seconds there.
	refUnit = 3.0e-3
)

type speedometer struct {
	table []uint32
	idx   uint32

	mu    sync.Mutex
	at    []time.Time // when each unit ended
	speed []float64   // refUnit / that unit's thread CPU seconds

	stop chan struct{}
	done chan struct{}
}

func threadCPU() float64 {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Sec) + float64(ts.Nsec)*1e-9
}

// startSpeedometer fills the table and starts the sampling thread. It returns
// once the first units are in, so every later interval has a reading.
func startSpeedometer() *speedometer {
	s := &speedometer{table: make([]uint32, speedoTable), stop: make(chan struct{}), done: make(chan struct{})}
	x := uint64(88172645463325252)
	for i := range s.table {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s.table[i] = uint32(x)
	}
	ready := make(chan struct{})
	go func() {
		defer close(s.done)
		runtime.LockOSThread() // the CPU clock read is this thread's
		for n := 0; ; n++ {
			if n == 3 {
				close(ready)
			}
			// A core woken from idle takes a moment to come up to speed, and
			// whether this thread finds one idle depends on the workload:
			// spin ~0.3 ms untimed first, so a reading is the speed running
			// code sees.
			spin(speedoALU / 8)
			c0 := threadCPU()
			s.unit()
			dt := threadCPU() - c0
			s.mu.Lock()
			s.at = append(s.at, time.Now())
			s.speed = append(s.speed, refUnit/dt)
			s.mu.Unlock()
			select {
			case <-s.stop:
				return
			case <-time.After(speedoPause):
			}
		}
	}()
	<-ready
	return s
}

// spin runs two independent xorshift chains for n rounds: about two
// instructions a cycle, as ordinary compiled code runs, so that sharing a core
// with a sibling thread slows it about as much as it slows the program.
func spin(n int) uint64 {
	x, y := uint64(n)|1, uint64(n)<<7|1
	for i := 0; i < n; i++ {
		x ^= x << 13
		y ^= y << 13
		x ^= x >> 7
		y ^= y >> 7
		x ^= x << 17
		y ^= y << 17
	}
	return x ^ y
}

func (s *speedometer) unit() {
	idx := s.idx
	for i := uint32(0); i < speedoChase; i++ {
		// + i keeps the walk off the short cycles a random mapping has.
		idx = (s.table[idx] + i) & (speedoTable - 1)
	}
	x := spin(speedoALU) ^ uint64(idx)
	if m, err := syscall.Mmap(-1, 0, speedoMap, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE); err == nil {
		for i := 0; i < len(m); i += 4096 {
			m[i] = byte(x)
		}
		syscall.Munmap(m)
	}
	s.idx = uint32(x) & (speedoTable - 1)
}

// close stops the sampling thread and waits for it.
func (s *speedometer) close() {
	close(s.stop)
	<-s.done
}

// over returns the mean host speed between two instants. Work done in an
// interval is the integral of speed over it, so the mean of the readings
// (taken at even spacing in time) is the factor that turns the interval's
// length into reference seconds. A short interval is widened to a second
// around its middle (a single reading repeats within ~5 %, twenty-five within
// ~1 %), and borrows the nearest readings if it still holds fewer than three.
func (s *speedometer) over(from, to time.Time) (speed float64, n int) {
	if short := time.Second - to.Sub(from); short > 0 {
		from, to = from.Add(-short/2), to.Add(short/2)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	lo := sort.Search(len(s.at), func(i int) bool { return !s.at[i].Before(from) })
	hi := sort.Search(len(s.at), func(i int) bool { return s.at[i].After(to) })
	for hi-lo < 3 && (lo > 0 || hi < len(s.at)) {
		if lo > 0 {
			lo--
		}
		if hi < len(s.at) {
			hi++
		}
	}
	if hi == lo {
		return 1, 0
	}
	sum := 0.0
	for _, v := range s.speed[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo), hi - lo
}
