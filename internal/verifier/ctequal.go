package verifier

import "encoding/binary"

// ctEqual reports whether a and b hold the same bytes. It has the
// contract of crypto/hmac's Equal — slices of different lengths are
// unequal, and for equal lengths the time taken does not depend on
// where, or whether, the contents differ — and is the one comparison
// every nonce and tag check of the verification core goes through. It
// accumulates the XOR of the operands eight bytes at a step (then a
// byte tail), so a 16-byte nonce is two steps and a 32-byte tag four,
// where the standard library's compare takes one step per byte.
func ctEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var diff uint64
	for len(a) >= 8 {
		diff |= binary.LittleEndian.Uint64(a) ^ binary.LittleEndian.Uint64(b)
		a, b = a[8:], b[8:]
	}
	for i := range a {
		diff |= uint64(a[i] ^ b[i])
	}
	return diff == 0
}
