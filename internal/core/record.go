package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"o2k/internal/sim"
)

// The metrics record is the payload of a metrics entry in the persistent
// cell cache: a fixed little-endian layout that a warm run decodes without
// reflection. It is lossless for the same reason the JSON codec is — every
// field is written whole, integers as 64-bit words and float64s as their
// IEEE bits — and canonical, so one Metrics value has exactly one record:
//
//	Model, Procs, Total             int64 ×3
//	PhaseMax, PhaseAvg              int64 × sim.NumPhases each
//	Counters                        uint64 × 9, in declaration order
//	DataBytes                       int64
//	Checksum                        float64 bits
//	Extra count                     uint32: 0 for a nil map, len+1 otherwise
//	Extra entries, keys ascending   uint32 key length, key bytes, float64 bits
//
// The record is fenced to one build by the cache's binary fingerprint, so
// it carries no version of its own.

// recordFixed is the size of a record up to and including the Extra count.
const recordFixed = 8*(3+2*int(sim.NumPhases)+9+2) + 4

// EncodeMetricsRecord serializes m as a metrics record. Like EncodeMetrics it
// fails only on non-finite floats, which the caller treats as "do not
// cache".
func EncodeMetricsRecord(m Metrics) ([]byte, error) {
	keys := make([]string, 0, len(m.Extra))
	size := recordFixed
	for k, v := range m.Extra {
		if !finite(v) {
			return nil, fmt.Errorf("core: encode metrics: Extra[%q] is %v", k, v)
		}
		keys = append(keys, k)
		size += 4 + len(k) + 8
	}
	if !finite(m.Checksum) {
		return nil, fmt.Errorf("core: encode metrics: Checksum is %v", m.Checksum)
	}
	slices.Sort(keys)

	b := make([]byte, 0, size)
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
		c.BytesSent, c.MsgsSent, c.Collectives, c.LockOps, c.AllocBytes} {
		b = le.AppendUint64(b, n)
	}
	b = le.AppendUint64(b, uint64(m.DataBytes))
	b = le.AppendUint64(b, math.Float64bits(m.Checksum))
	if m.Extra == nil {
		b = le.AppendUint32(b, 0)
	} else {
		b = le.AppendUint32(b, uint32(len(keys)+1))
	}
	for _, k := range keys {
		b = le.AppendUint32(b, uint32(len(k)))
		b = append(b, k...)
		b = le.AppendUint64(b, math.Float64bits(m.Extra[k]))
	}
	return b, nil
}

// DecodeMetricsRecord is the strict inverse of EncodeMetricsRecord: the
// length must be exact, Extra's keys strictly ascending, every float finite
// and nothing may trail, so every record it accepts re-encodes to the same
// bytes.
func DecodeMetricsRecord(data []byte) (Metrics, error) {
	m, err := decodeRecord(data)
	if err != nil {
		return Metrics{}, fmt.Errorf("core: decode metrics record: %w", err)
	}
	return m, nil
}

func decodeRecord(data []byte) (Metrics, error) {
	var m Metrics
	if len(data) < recordFixed {
		return m, errors.New("short record")
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
		&c.BytesSent, &c.MsgsSent, &c.Collectives, &c.LockOps, &c.AllocBytes} {
		*n = word()
	}
	m.DataBytes = int(word())
	m.Checksum = math.Float64frombits(word())
	if !finite(m.Checksum) {
		return m, errors.New("non-finite checksum")
	}
	count := le.Uint32(data)
	data = data[4:]
	if count == 0 {
		if len(data) != 0 {
			return m, errors.New("trailing data")
		}
		return m, nil
	}
	n := int(count - 1)
	if n > len(data)/12 { // each entry is at least a length and a value
		return m, errors.New("Extra count exceeds the record")
	}
	m.Extra = make(map[string]float64, n)
	prev := ""
	for i := 0; i < n; i++ {
		if len(data) < 4 {
			return m, errors.New("truncated Extra key")
		}
		kl := le.Uint32(data)
		data = data[4:]
		if uint64(len(data)) < uint64(kl)+8 {
			return m, errors.New("truncated Extra entry")
		}
		k := string(data[:kl])
		data = data[kl:]
		if i > 0 && k <= prev {
			return m, fmt.Errorf("Extra key %q out of order", k)
		}
		v := math.Float64frombits(word())
		if !finite(v) {
			return m, fmt.Errorf("Extra[%q] is not finite", k)
		}
		m.Extra[k] = v
		prev = k
	}
	if len(data) != 0 {
		return m, errors.New("trailing data")
	}
	return m, nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
