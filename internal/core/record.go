package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"o2k/internal/sim"
)

// The metrics record is the payload of a metrics entry in the persistent
// cell cache: a fixed little-endian layout of recordSize bytes that a warm
// run decodes without reflection. It is lossless for the same reason the
// JSON codec is — every field is written whole, integers as 64-bit words and
// float64s as their IEEE bits — and canonical, so one Metrics value has
// exactly one record:
//
//	Model, Procs, Total             int64 ×3
//	PhaseMax, PhaseAvg              int64 × sim.NumPhases each
//	Counters                        uint64 × 8, in declaration order
//	DataBytes                       int64
//	Checksum, MovedWeight           float64 bits ×2
//
// The record is fenced to one build by the cache's binary fingerprint, so
// it carries no version of its own.

// recordSize is the size of every record: 30 words.
const recordSize = 8 * (3 + 2*int(sim.NumPhases) + 8 + 3)

// EncodeMetricsRecord serializes m as a metrics record. Like EncodeMetrics it
// fails only on non-finite floats, which the caller treats as "do not
// cache".
func EncodeMetricsRecord(m Metrics) ([]byte, error) {
	if !finite(m.Checksum) || !finite(m.MovedWeight) {
		return nil, fmt.Errorf("core: encode metrics: Checksum %v, MovedWeight %v", m.Checksum, m.MovedWeight)
	}
	b := make([]byte, 0, recordSize)
	le := binary.LittleEndian
	b = le.AppendUint64(b, uint64(m.Model))
	b = le.AppendUint64(b, uint64(m.Procs))
	b = le.AppendUint64(b, uint64(m.Total))
	for _, t := range m.PhaseMax {
		b = le.AppendUint64(b, uint64(t))
	}
	for _, t := range m.PhaseAvg {
		b = le.AppendUint64(b, uint64(t))
	}
	c := &m.Counters
	for _, n := range [...]uint64{c.CacheHits, c.LocalMisses, c.RemoteMisses, c.CohMisses,
		c.BytesSent, c.MsgsSent, c.Collectives, c.LockOps} {
		b = le.AppendUint64(b, n)
	}
	b = le.AppendUint64(b, uint64(m.DataBytes))
	b = le.AppendUint64(b, math.Float64bits(m.Checksum))
	b = le.AppendUint64(b, math.Float64bits(m.MovedWeight))
	return b, nil
}

// DecodeMetricsRecord is the strict inverse of EncodeMetricsRecord: the
// length must be exactly recordSize and every float finite, so every record
// it accepts re-encodes to the same bytes.
func DecodeMetricsRecord(data []byte) (Metrics, error) {
	var m Metrics
	if len(data) != recordSize {
		return m, fmt.Errorf("core: decode metrics record: %d bytes, want %d", len(data), recordSize)
	}
	le := binary.LittleEndian
	word := func() uint64 {
		v := le.Uint64(data)
		data = data[8:]
		return v
	}
	m.Model = Model(word())
	m.Procs = int(word())
	m.Total = sim.Time(word())
	for i := range m.PhaseMax {
		m.PhaseMax[i] = sim.Time(word())
	}
	for i := range m.PhaseAvg {
		m.PhaseAvg[i] = sim.Time(word())
	}
	c := &m.Counters
	for _, n := range [...]*uint64{&c.CacheHits, &c.LocalMisses, &c.RemoteMisses, &c.CohMisses,
		&c.BytesSent, &c.MsgsSent, &c.Collectives, &c.LockOps} {
		*n = word()
	}
	m.DataBytes = int(word())
	m.Checksum = math.Float64frombits(word())
	m.MovedWeight = math.Float64frombits(word())
	if !finite(m.Checksum) || !finite(m.MovedWeight) {
		return Metrics{}, errors.New("core: decode metrics record: non-finite float")
	}
	return m, nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
