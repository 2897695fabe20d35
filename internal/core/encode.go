package core

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math/rand/v2"
	"sync"

	"saferatt/internal/inccache"
	"saferatt/internal/suite"
)

// The canonical measurement encoding binds the challenge, round number,
// traversal position and block index into the tag, so a report cannot
// be replayed across challenges or rounds and a permuted traversal
// cannot be forged from a sequential one. Prover and verifier must
// produce byte-identical streams; both sides use the helpers below.

// writeMeasurementHeader emits the per-measurement prefix, encoded in
// the caller's buf for the reason putBlockHeader takes one.
func writeMeasurementHeader(w io.Writer, buf *[8]byte, nonce []byte, round int) {
	binary.BigEndian.PutUint32(buf[:4], uint32(len(nonce)))
	binary.BigEndian.PutUint32(buf[4:], uint32(round))
	w.Write(buf[:])
	w.Write(nonce)
}

// putBlockHeader encodes the per-block prefix — traversal position and
// block index — into buf and returns it as a slice. Callers own buf so
// the scratch lives outside the per-block loop; passing a loop-local
// array to an io.Writer would escape and allocate once per block.
func putBlockHeader(buf *[8]byte, pos, block int) []byte {
	binary.BigEndian.PutUint32(buf[:4], uint32(pos))
	binary.BigEndian.PutUint32(buf[4:], uint32(block))
	return buf[:]
}

// DeriveOrder returns the block traversal order for a measurement:
// the identity for sequential mechanisms, or a keyed pseudorandom
// permutation for shuffled (SMARM) traversal.
//
// The permutation is derived as PRF(permKey, nonce || round) feeding a
// Fisher–Yates shuffle. The verifier shares permKey (it shares the
// attestation key in the MAC setting), so it can re-derive the order;
// prover-resident malware cannot, which is exactly SMARM's assumption
// that "malware is unable to determine what blocks have been measured".
func DeriveOrder(permKey, nonce []byte, round, n int, shuffled bool) []int {
	return DeriveOrderRegion(permKey, nonce, round, 0, n, shuffled)
}

// DeriveOrderRegion is DeriveOrder restricted to the block range
// [start, start+count): TyTAN-style per-process measurement traverses
// only the measured process's region.
func DeriveOrderRegion(permKey, nonce []byte, round, start, count int, shuffled bool) []int {
	return AppendOrderRegion(nil, permKey, nonce, round, start, count, shuffled)
}

var identityOrders sync.Map // [2]int{start, count} -> []int

// identityOrder returns the process-shared identity traversal order for
// [start, start+count). Sequential (non-shuffled) measurement orders
// are identical for every device, round and nonce, so every session in
// a fleet can alias one slice instead of rebuilding it. The slice is
// read-only by contract — Report.Order exposes it and nothing may
// mutate a report's order.
func identityOrder(start, count int) []int {
	k := [2]int{start, count}
	if o, ok := identityOrders.Load(k); ok {
		return o.([]int)
	}
	o := make([]int, count)
	for i := range o {
		o[i] = start + i
	}
	actual, _ := identityOrders.LoadOrStore(k, o)
	return actual.([]int)
}

// AppendOrderRegion is DeriveOrderRegion writing into dst's capacity:
// verification loops that re-derive an order per report can hand back
// the previous call's slice (typically as order[:0]) and traverse
// memory without a fresh allocation per round. The returned slice has
// length count. The PRF state is pooled for the same reason.
func AppendOrderRegion(dst []int, permKey, nonce []byte, round, start, count int, shuffled bool) []int {
	var order []int
	if cap(dst) >= count {
		order = dst[:count]
	} else {
		order = make([]int, count)
	}
	for i := range order {
		order[i] = start + i
	}
	if !shuffled || count < 2 {
		return order
	}
	mac, err := suite.AcquireMAC(suite.SHA256, permKey)
	if err != nil {
		// Degenerate keys (empty permKey) fall back to an unpooled HMAC
		// so the historical behavior is preserved byte for byte.
		mac = hmac.New(sha256.New, permKey)
	}
	var hdr [8]byte
	writeMeasurementHeader(mac, &hdr, nonce, round)
	var seed [sha256Size]byte
	mac.Sum(seed[:0])
	if err == nil {
		suite.ReleaseMAC(suite.SHA256, permKey, mac)
	}
	rng := rand.New(rand.NewPCG(
		binary.BigEndian.Uint64(seed[:8]),
		binary.BigEndian.Uint64(seed[8:16]),
	))
	rng.Shuffle(count, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// sha256Size is the HMAC-SHA-256 output length used for order seeds.
const sha256Size = 32

// ExpectedStreamForReport writes the expected measurement stream for a
// report, mirroring its data path: raw reference bytes for streaming
// reports, uncached per-block digests for incremental ones. hash is the
// scheme's measurement hash. This is the convenience form for tests and
// one-shot verifiers; the production verifiers use cached golden
// digests (inccache.ImageCache) instead.
func ExpectedStreamForReport(w io.Writer, hash suite.HashID, rep *Report, ref []byte, blockSize int, order []int) {
	if !rep.Incremental {
		ExpectedStream(w, ref, blockSize, rep.Nonce, rep.Round, order)
		return
	}
	dh := inccache.DigestHash(hash)
	var scratch []byte
	ExpectedDigestStream(w, func(b int) ([]byte, error) {
		scratch = inccache.DigestOf(dh, ref[b*blockSize:(b+1)*blockSize], scratch[:0])
		return scratch, nil
	}, rep.Nonce, rep.Round, order)
}

// ExpectedStream writes the canonical measurement byte stream for a
// reference memory image to w: the verifier-side mirror of what the
// engine feeds its tagger. ref must be the full memory image; order
// lists block indices in traversal order.
func ExpectedStream(w io.Writer, ref []byte, blockSize int, nonce []byte, round int, order []int) {
	var hdr [8]byte
	writeMeasurementHeader(w, &hdr, nonce, round)
	for pos, b := range order {
		w.Write(putBlockHeader(&hdr, pos, b))
		w.Write(ref[b*blockSize : (b+1)*blockSize])
	}
}

// ExpectedDigestStream writes the canonical *incremental* measurement
// stream to w: the same headers as ExpectedStream, but each block's
// content replaced by its unkeyed digest (see internal/inccache). The
// digest callback supplies the expected digest of block b — cached
// golden digests, a zero-block digest, or a digest of report-attached
// data, per the §2.3 policy; a non-nil error aborts the stream and is
// returned (mirroring the streaming path's missing-data errors).
func ExpectedDigestStream(w io.Writer, digest func(b int) ([]byte, error), nonce []byte, round int, order []int) error {
	var hdr [8]byte
	writeMeasurementHeader(w, &hdr, nonce, round)
	for pos, b := range order {
		d, err := digest(b)
		if err != nil {
			return err
		}
		w.Write(putBlockHeader(&hdr, pos, b))
		w.Write(d)
	}
	return nil
}
