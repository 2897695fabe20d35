// Lifecycle demonstrates the security services the paper's
// introduction says RA enables (§1): an infected device is caught by
// attestation, disinfected by a proof of secure erasure, re-provisioned
// with an authenticated software update, and finally attested clean
// against the new golden image.
//
// Run with: go run ./examples/lifecycle
package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"

	"saferatt/internal/channel"
	"saferatt/internal/core"
	"saferatt/internal/costmodel"
	"saferatt/internal/device"
	"saferatt/internal/malware"
	"saferatt/internal/mem"
	"saferatt/internal/prover"
	"saferatt/internal/services"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
	"saferatt/internal/transport"
	"saferatt/internal/verifier"
)

func main() {
	k := sim.NewKernel()
	m := mem.New(mem.Config{Size: 16 << 10, BlockSize: 1024, ROMBlocks: 1, Clock: k.Now})
	m.FillRandom(rand.New(rand.NewPCG(99, 99)))
	dev := device.New(device.Config{Kernel: k, Mem: m, Profile: costmodel.ODROIDXU4()})
	// One link carries both planes: attestation endpoints speak typed
	// protocol messages through tr, the update/erase services drive the
	// link directly.
	link := channel.New(channel.Config{Kernel: k, Latency: 2 * sim.Millisecond})
	tr := transport.NewSim(link)

	opts := core.Preset(core.SMART, suite.SHA256)
	golden := m.Snapshot()
	v, err := verifier.New(verifier.Config{
		Kernel: k, Transport: tr,
		Scheme:  suite.Scheme{Hash: suite.SHA256, Key: dev.AttestationKey},
		PermKey: dev.AttestationKey,
		Image:   verifier.ImageOf(golden, 1024), Opts: opts,
	})
	if err != nil {
		panic(err)
	}
	if _, err := prover.NewProver("prv", dev, tr, opts, 10); err != nil {
		panic(err)
	}
	services.NewAgent("prv-svc", dev, link, 5)
	rom := append([]byte(nil), golden[:1024]...)
	mgr := services.NewManager("mgr", link, dev.AttestationKey, rom, 1024, 16<<10)

	attest := func(label string) bool {
		before := v.Counts()
		v.Challenge("prv")
		k.Run()
		after := v.Counts()
		ok := after.Accepted > before.Accepted
		fmt.Printf("%-34s verdict=%v\n", label, ok)
		return ok
	}

	// 1. Device starts clean.
	attest("1. initial attestation:")

	// 2. Malware lands.
	mw := malware.NewTransient(dev, 50)
	if err := mw.Infect(9); err != nil {
		panic(err)
	}
	attest("2. after infection:")

	// 3. Disinfect with a proof of secure erasure (wipes everything
	//    writable — malware included).
	var eraseOK bool
	mgr.RequestErasure("prv-svc", func(ok bool, p *services.EraseProof) {
		eraseOK = ok
		fmt.Printf("%-34s proof-ok=%v wiped=%d bytes in %v\n",
			"3. proof of secure erasure:", ok, p.Bytes, p.TE.Sub(p.TS))
	})
	k.Run()
	if !eraseOK {
		panic("erasure proof rejected")
	}

	// 4. Re-provision: push the original content back block by block
	//    as authenticated updates, then install new firmware in block 5.
	for b := 1; b < 16; b++ {
		content := golden[b*1024 : (b+1)*1024]
		mgr.PushUpdate("prv-svc", b, content, nil)
	}
	newFirmware := bytes.Repeat([]byte{0xF1}, 1024)
	var ack *services.UpdateAck
	mgr.PushUpdate("prv-svc", 5, newFirmware, func(a *services.UpdateAck) { ack = a })
	k.Run()
	fmt.Printf("%-34s installed=%v\n", "4. authenticated updates:", ack != nil && ack.OK)

	// 5. The verifier moves its golden image forward and the device
	//    attests clean against the NEW reference.
	newGolden := append([]byte(nil), golden...)
	copy(newGolden[5*1024:6*1024], newFirmware)
	v.Image = verifier.ImageOf(newGolden, 1024)
	attest("5. attestation vs new golden:")

	fmt.Println("\nRA as a foundation: detection -> provable erasure -> authenticated")
	fmt.Println("update -> fresh root of trust, exactly the service stack of §1.")
}
