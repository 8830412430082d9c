package isis

// Fletcher checksum per ISO 8473 / ISO 10589 §7.3.11, as used for the
// LSP checksum field. The checksum covers the LSP from the LSP ID
// field to the end of the PDU; the check octets are computed so that
// both running sums of the completed PDU are zero (RFC 1008 §5).

const fletcherMod = 255

// fletcherBlock is how many octets the running sums absorb between
// reductions. From reduced sums the second one grows by at most
// 255·n(n+1)/2 + 255·n over n octets, so a uint32 holds blocks of
// several thousand; 256 keeps the bound obvious.
const fletcherBlock = 256

// fletcherSums folds data into the two running sums, reducing mod 255
// once per block instead of once per octet. c0 and c1 may arrive
// unreduced by a few multiples of 255.
func fletcherSums(c0, c1 uint32, data []byte) (uint32, uint32) {
	for len(data) > 0 {
		block := data[:min(len(data), fletcherBlock)]
		data = data[len(block):]
		for _, b := range block {
			c0 += uint32(b)
			c1 += c0
		}
		c0 %= fletcherMod
		c1 %= fletcherMod
	}
	return c0, c1
}

// fletcherChecksum computes the two check octets for data, where the
// checksum field (two bytes, treated as zero) lives at byte offset
// ckOff within data. The returned value is X<<8|Y ready to be stored
// big-endian at ckOff.
func fletcherChecksum(data []byte, ckOff int) uint16 {
	u0, u1 := fletcherSums(0, 0, data[:ckOff])
	// The two zeroed check octets leave c0 alone and add it to c1 twice.
	u0, u1 = fletcherSums(u0, u1+2*u0, data[ckOff+2:])
	c0, c1 := int(u0), int(u1)
	// RFC 1008 §5: with n the 1-based position of the first check
	// octet and L the block length,
	//   X = (L - n)·C0 - C1  (mod 255)
	//   Y = C1 - (L - n + 1)·C0  (mod 255)
	// adjusted into [1, 255] since a zero field means "unchecked".
	n := ckOff + 1
	l := len(data)
	x := ((l-n)*c0 - c1) % fletcherMod
	if x <= 0 {
		x += fletcherMod
	}
	y := (c1 - (l-n+1)*c0) % fletcherMod
	if y <= 0 {
		y += fletcherMod
	}
	return uint16(x)<<8 | uint16(y)
}

// fletcherVerify reports whether data (with the check octets in place
// at ckOff) carries a valid ISO 8473 checksum. A zero checksum field
// means "checksum not computed" and verifies trivially.
func fletcherVerify(data []byte, ckOff int) bool {
	if data[ckOff] == 0 && data[ckOff+1] == 0 {
		return true
	}
	c0, c1 := fletcherSums(0, 0, data)
	return c0 == 0 && c1 == 0
}
