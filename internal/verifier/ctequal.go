package verifier

import "encoding/binary"

// ctEqual reports whether a and b hold the same bytes. It has the
// contract of crypto/hmac's Equal — slices of different lengths are
// unequal, and for equal lengths the time taken does not depend on
// where, or whether, the contents differ — and is the one comparison
// every nonce and tag check of the verification core goes through. It
// accumulates the XOR of the operands eight bytes at a step (then a
// byte tail), so a 16-byte nonce is two steps, where the standard
// library's compare takes one step per byte. Thirty-two bytes, the size
// of every nonce the verifiers derive or issue and of a SHA-256 tag,
// take four loads a side with no loop and no bounds check.
func ctEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 32 {
		x, y := (*[32]byte)(a), (*[32]byte)(b)
		le := binary.LittleEndian
		return (le.Uint64(x[0:])^le.Uint64(y[0:]))|(le.Uint64(x[8:])^le.Uint64(y[8:]))|
			(le.Uint64(x[16:])^le.Uint64(y[16:]))|(le.Uint64(x[24:])^le.Uint64(y[24:])) == 0
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
