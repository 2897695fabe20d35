// Package services implements the two security services the paper's
// introduction names as built on top of RA (§1): "RA ... can also be
// used to construct other security services, such as software updates
// [25] and secure deletion [21]".
//
//   - SecureUpdate (SCUBA-style): the verifier ships an authenticated
//     code update; the prover's ROM agent verifies and installs it and
//     the next attestation — against the updated golden image — proves
//     the installation.
//   - Proof of Secure Erasure (Perito–Tsudik-style): the verifier sends
//     a seed; the prover overwrites ALL writable memory with the seeded
//     pseudorandom stream and MACs the result. Because the device has
//     no spare memory to stash anything, a correct proof implies
//     nothing else — malware included — survived.
package services

import (
	"bytes"
	"crypto/hmac"
	"encoding/binary"
	"fmt"

	"saferatt/internal/channel"
	"saferatt/internal/core"
	"saferatt/internal/device"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
)

// Protocol message kinds.
const (
	MsgUpdate     = "update"      // Vrf -> Prv: *Update
	MsgUpdateAck  = "update-ack"  // Prv -> Vrf: *UpdateAck
	MsgEraseReq   = "erase-req"   // Vrf -> Prv: *EraseRequest
	MsgEraseProof = "erase-proof" // Prv -> Vrf: *EraseProof
)

// Update is an authenticated single-block software update.
type Update struct {
	Seq     uint64
	Block   int
	Content []byte
	Tag     []byte // MAC(key, "update" || seq || block || content)
}

// UpdateAck acknowledges installation.
type UpdateAck struct {
	Seq       uint64
	OK        bool
	Reason    string
	AppliedAt sim.Time
}

// EraseRequest starts a proof-of-secure-erasure round.
type EraseRequest struct {
	Seq  uint64
	Seed []byte
}

// EraseProof is the prover's response: a MAC over the whole
// post-erasure memory.
type EraseProof struct {
	Seq   uint64
	Tag   []byte
	TS    sim.Time
	TE    sim.Time
	Bytes int // writable bytes overwritten
}

// updateTag computes the update authenticator.
func updateTag(key []byte, seq uint64, block int, content []byte) []byte {
	mac, err := suite.NewMAC(suite.SHA256, key)
	if err != nil {
		panic("services: " + err.Error())
	}
	var hdr [16]byte
	binary.BigEndian.PutUint64(hdr[:8], seq)
	binary.BigEndian.PutUint64(hdr[8:], uint64(block))
	mac.Write([]byte("update"))
	mac.Write(hdr[:])
	mac.Write(content)
	return mac.Sum(nil)
}

// eraseStream fills dst with the deterministic erasure stream for the
// given seed: PRF-expanded, so prover and verifier derive identical
// content without shipping megabytes.
func eraseStream(key, seed []byte, dst []byte) {
	var ctr uint64
	for off := 0; off < len(dst); {
		blockKey := core.PRF(key, "erase:"+string(seed), ctr)
		n := copy(dst[off:], blockKey)
		off += n
		ctr++
	}
}

// Agent is the prover-side ROM service handling updates and erasure
// requests. Its work runs as device task steps, so it competes for the
// CPU like any other code and its writes pass the MPU.
type Agent struct {
	Name string
	Dev  *device.Device
	Link *channel.Link

	task    *device.Task
	lastSeq uint64
	// Installed counts applied updates; Erasures counts completed
	// erasure rounds.
	Installed int
	Erasures  int
}

// NewAgent wires the service agent onto the link. prio is the agent's
// task priority (update installation is typically not time-critical).
func NewAgent(name string, dev *device.Device, link *channel.Link, prio int) *Agent {
	a := &Agent{Name: name, Dev: dev, Link: link}
	a.task = dev.NewTask("svc:"+name, prio)
	link.Connect(name, a.onMessage)
	return a
}

func (a *Agent) onMessage(m channel.Message) {
	switch m.Kind {
	case MsgUpdate:
		if u, ok := m.Payload.(*Update); ok {
			a.handleUpdate(m.From, u)
		}
	case MsgEraseReq:
		if r, ok := m.Payload.(*EraseRequest); ok {
			a.handleErase(m.From, r)
		}
	}
}

func (a *Agent) handleUpdate(from string, u *Update) {
	nack := func(reason string) {
		a.Link.Send(a.Name, from, MsgUpdateAck, &UpdateAck{Seq: u.Seq, Reason: reason})
	}
	want := updateTag(a.Dev.AttestationKey, u.Seq, u.Block, u.Content)
	if !hmac.Equal(want, u.Tag) {
		nack("bad update authenticator")
		return
	}
	if u.Seq <= a.lastSeq {
		nack("stale update sequence (replay?)")
		return
	}
	if len(u.Content) != a.Dev.Mem.BlockSize() {
		nack(fmt.Sprintf("update is %d bytes, want one %d-byte block", len(u.Content), a.Dev.Mem.BlockSize()))
		return
	}
	// Install as a task step charged with the copy cost.
	a.task.Submit(a.Dev.Profile.CopyTime(len(u.Content)), func() {
		if err := a.Dev.Mem.WriteBlock(u.Block, u.Content); err != nil {
			nack("install failed: " + err.Error())
			return
		}
		a.lastSeq = u.Seq
		a.Installed++
		a.Link.Send(a.Name, from, MsgUpdateAck, &UpdateAck{
			Seq: u.Seq, OK: true, AppliedAt: a.Dev.Kernel.Now(),
		})
	})
}

// handleErase performs the PoSE protocol: overwrite every writable
// block with the seeded stream, then MAC all of memory. The routine
// runs atomically — PoSE is only sound if nothing else can run and
// re-derive state while memory is being wiped.
func (a *Agent) handleErase(from string, req *EraseRequest) {
	memory := a.Dev.Mem
	rom := memory.ROMBlocks()
	bs := memory.BlockSize()
	writable := (memory.NumBlocks() - rom) * bs
	stream := make([]byte, writable)
	eraseStream(a.Dev.AttestationKey, req.Seed, stream)

	a.Dev.DisableInterrupts(a.task)
	ts := a.Dev.Kernel.Now()
	// One step per block: wipe cost is real wall time on the device.
	var wipe func(b int)
	wipe = func(b int) {
		if b >= memory.NumBlocks() {
			a.finishErase(from, req, ts, writable)
			return
		}
		a.task.Submit(a.Dev.Profile.CopyTime(bs), func() {
			off := (b - rom) * bs
			if err := memory.WriteBlock(b, stream[off:off+bs]); err != nil {
				// Nothing is locked during PoSE; fail loudly if the
				// model changes.
				panic("services: erase write failed: " + err.Error())
			}
			wipe(b + 1)
		})
	}
	wipe(rom)
}

func (a *Agent) finishErase(from string, req *EraseRequest, ts sim.Time, wiped int) {
	memory := a.Dev.Mem
	cost := a.Dev.Profile.MACTime(suite.SHA256, memory.Size())
	a.task.Submit(cost, func() {
		mac, err := suite.NewMAC(suite.SHA256, a.Dev.AttestationKey)
		if err != nil {
			panic("services: " + err.Error())
		}
		var hdr [8]byte
		binary.BigEndian.PutUint64(hdr[:], req.Seq)
		mac.Write([]byte("erase-proof"))
		mac.Write(hdr[:])
		mac.Write(req.Seed)
		mac.Write(memory.Raw())
		a.Dev.EnableInterrupts()
		a.Erasures++
		a.Link.Send(a.Name, from, MsgEraseProof, &EraseProof{
			Seq: req.Seq, Tag: mac.Sum(nil), TS: ts, TE: a.Dev.Kernel.Now(), Bytes: wiped,
		})
	})
}

// Manager is the verifier-side service driver.
type Manager struct {
	Name string
	Link *channel.Link
	Key  []byte // shared attestation key
	// ROMImage is the immutable ROM prefix of the golden image, needed
	// to recompute erase proofs.
	ROMImage  []byte
	BlockSize int
	MemSize   int

	seq uint64
	// Pending callbacks by sequence number.
	updateCb map[uint64]func(*UpdateAck)
	eraseCb  map[uint64]func(ok bool, proof *EraseProof)
	eraseReq map[uint64]*EraseRequest
}

// NewManager wires the service manager onto the link under name.
func NewManager(name string, link *channel.Link, key, romImage []byte, blockSize, memSize int) *Manager {
	m := &Manager{
		Name: name, Link: link, Key: key, ROMImage: romImage,
		BlockSize: blockSize, MemSize: memSize,
		updateCb: map[uint64]func(*UpdateAck){},
		eraseCb:  map[uint64]func(bool, *EraseProof){},
		eraseReq: map[uint64]*EraseRequest{},
	}
	link.Connect(name, m.onMessage)
	return m
}

// PushUpdate ships an authenticated update for one block and invokes
// done with the prover's acknowledgment.
func (m *Manager) PushUpdate(prover string, block int, content []byte, done func(*UpdateAck)) *Update {
	m.seq++
	u := &Update{
		Seq: m.seq, Block: block,
		Content: append([]byte(nil), content...),
		Tag:     updateTag(m.Key, m.seq, block, content),
	}
	if done != nil {
		m.updateCb[u.Seq] = done
	}
	m.Link.Send(m.Name, prover, MsgUpdate, u)
	return u
}

// RequestErasure starts a PoSE round with a fresh seed; done receives
// the verification outcome.
func (m *Manager) RequestErasure(prover string, done func(ok bool, proof *EraseProof)) *EraseRequest {
	m.seq++
	req := &EraseRequest{Seq: m.seq, Seed: core.PRF(m.Key, "erase-seed", m.seq)[:16]}
	if done != nil {
		m.eraseCb[req.Seq] = done
	}
	m.eraseReq[req.Seq] = req
	m.Link.Send(m.Name, prover, MsgEraseReq, req)
	return req
}

func (m *Manager) onMessage(msg channel.Message) {
	switch msg.Kind {
	case MsgUpdateAck:
		if ack, ok := msg.Payload.(*UpdateAck); ok {
			if cb := m.updateCb[ack.Seq]; cb != nil {
				delete(m.updateCb, ack.Seq)
				cb(ack)
			}
		}
	case MsgEraseProof:
		if proof, ok := msg.Payload.(*EraseProof); ok {
			cb := m.eraseCb[proof.Seq]
			req := m.eraseReq[proof.Seq]
			delete(m.eraseCb, proof.Seq)
			delete(m.eraseReq, proof.Seq)
			if cb != nil {
				cb(req != nil && m.verifyErasure(req, proof), proof)
			}
		}
	}
}

// verifyErasure recomputes the expected post-erasure memory image and
// checks the proof MAC.
func (m *Manager) verifyErasure(req *EraseRequest, proof *EraseProof) bool {
	expected := m.expectedAfterErasure(req)
	mac, err := suite.NewMAC(suite.SHA256, m.Key)
	if err != nil {
		return false
	}
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], req.Seq)
	mac.Write([]byte("erase-proof"))
	mac.Write(hdr[:])
	mac.Write(req.Seed)
	mac.Write(expected)
	return bytes.Equal(mac.Sum(nil), proof.Tag)
}

// expectedAfterErasure returns the image the device must hold after a
// successful PoSE round.
func (m *Manager) expectedAfterErasure(req *EraseRequest) []byte {
	expected := make([]byte, m.MemSize)
	copy(expected, m.ROMImage)
	eraseStream(m.Key, req.Seed, expected[len(m.ROMImage):])
	return expected
}
