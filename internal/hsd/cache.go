package hsd

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"rhsd/internal/scancache"
	"rhsd/internal/tensor"
)

// This file wires the content-addressed result cache (internal/scancache)
// into the megatile scan. The cached unit is the output of one
// Detect(raster) call — detections in megatile-local pixel coordinates, a
// pure function of the raster bytes and the model weights — keyed by
// RasterKey over exactly those inputs. Position never enters the key:
// two megatiles anywhere on the chip (or in different requests) that
// rasterize to the same bytes share one forward pass. The halo-dependent
// parts of the scan — ownership filtering and translation to window
// coordinates — are recomputed per tile from the cached detections; they
// are deterministic arithmetic, so a hit is bit-identical to a cold scan
// by construction. DESIGN.md §14 documents the keying and invalidation
// rules.

// DetCache is the cache instantiation the megatile scan uses: raster
// content → detections in megatile-local pixel coordinates.
type DetCache = scancache.Cache[[]Detection]

// detectionBytes is the retained size of one Detection (geom.Rect = four
// float64s, plus the score) charged against the cache byte budget.
const detectionBytes = 5 * 8

// NewDetCache builds a detection result cache bounded to maxBytes
// (<= 0 means unbounded). The copy policy hands every caller its own
// []Detection, so cached results can never be torn by concurrent scans.
func NewDetCache(maxBytes int64) *DetCache {
	return scancache.New(maxBytes,
		func(v []Detection) int64 { return int64(len(v)) * detectionBytes },
		func(v []Detection) []Detection { return append([]Detection(nil), v...) })
}

// SetScanCache attaches (or, with nil, detaches) a megatile result cache.
// The cache is consulted by Scan, DetectLayoutMegatile and
// ScanLayoutMegatile before each megatile forward pass; a *DetCache is
// safe for concurrent use, so one cache is typically shared across a
// serving pool's workers (every clone inherits the attachment, and scan
// workers take it at the start of every scan). Detached models scan
// exactly as before — the nil-cache path adds no work and no
// allocations, preserving the steady-state allocation guarantee.
func (m *Model) SetScanCache(c *DetCache) { m.cache = c }

// ScanCache returns the attached megatile result cache, nil if detached.
func (m *Model) ScanCache() *DetCache { return m.cache }

// WeightsVersion digests everything that, besides the raster, determines
// Detect's output: the configuration, the view's precision and every
// parameter value, in Params() order. It is recomputed on each call
// rather than cached with invalidation hooks — a stale version is the
// one failure mode of a content-addressed cache that produces silently
// wrong detections (a hit under different weights), and no mutation path
// (Load, a training step, direct parameter writes in tests) can outrun a
// fresh hash. The cost is one SHA-256 pass over the parameters per
// layout scan — not per megatile — which is noise next to a single
// forward pass.
func (m *Model) WeightsVersion() [sha256.Size]byte { return m.weightsVersion(m.Precision()) }

// weightsVersion is WeightsVersion for a pass on the numeric path prec.
func (m *Model) weightsVersion(prec string) [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%+v", m.Config)
	// The numeric path is part of the output contract: int8 and fp32
	// results for one raster differ (within the accuracy gate's budget)
	// and must never share a cache entry. The calibration signature —
	// each quantized conv's input scale and zero point — folds in too,
	// since two int8 models with equal weights but different calibration
	// data produce different detections.
	fmt.Fprintf(h, ";precision=%s", prec)
	if prec == PrecisionInt8 && m.quant != nil {
		m.quant.WriteSignature(h)
	}
	var buf [4096]byte
	n := 0
	for _, p := range m.Params() {
		for _, f := range p.W.Data() {
			binary.LittleEndian.PutUint32(buf[n:], math.Float32bits(f))
			n += 4
			if n == len(buf) {
				h.Write(buf[:])
				n = 0
			}
		}
	}
	h.Write(buf[:n])
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// RasterKey is the content address of one megatile forward pass: a
// SHA-256 over the raster's shape, its exact float32 contents (metal and
// space channels, halo bands included — the network consumes halo bytes,
// so two rasters differing only in a halo must not share an entry), and
// the weights version. Tile position deliberately never enters the key.
func RasterKey(raster *tensor.Tensor, version [sha256.Size]byte) scancache.Key {
	h := sha256.New()
	var hdr [8]byte
	for i := 0; i < raster.Rank(); i++ {
		binary.LittleEndian.PutUint64(hdr[:], uint64(raster.Dim(i)))
		h.Write(hdr[:])
	}
	var buf [4096]byte
	n := 0
	for _, f := range raster.Data() {
		binary.LittleEndian.PutUint32(buf[n:], math.Float32bits(f))
		n += 4
		if n == len(buf) {
			h.Write(buf[:])
			n = 0
		}
	}
	h.Write(buf[:n])
	h.Write(version[:])
	var key scancache.Key
	h.Sum(key[:0])
	return key
}

// cachedDetect runs one megatile forward pass at precision prec through
// the attached cache: a content hit returns the stored detections (a
// private copy) without touching the network; a miss runs the pass on
// the scan worker mw and retains the result. With no cache attached it
// is a plain pass. The second return reports how the lookup was served
// (OutcomeNone when no cache was consulted) — request traces stamp it
// on the megatile's span.
func (m *Model) cachedDetect(mw *Model, raster *tensor.Tensor, prec string, version [sha256.Size]byte) ([]Detection, scancache.Outcome) {
	if m.cache == nil {
		return mw.detect(raster, prec), scancache.OutcomeNone
	}
	key := RasterKey(raster, version)
	return m.cache.GetOrComputeOutcome(key, func() []Detection {
		return mw.detect(raster, prec)
	})
}
