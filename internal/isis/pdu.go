package isis

import (
	"encoding/binary"
	"errors"
	"fmt"

	"netfail/internal/topo"
)

// Protocol constants from ISO 10589.
const (
	// IRPD is the Intradomain Routing Protocol Discriminator that
	// begins every IS-IS PDU.
	IRPD = 0x83
	// ProtocolVersion is the version/protocol ID extension value.
	ProtocolVersion = 1
	// SystemIDLen is the ID length used throughout (wire value 0).
	SystemIDLen = 6
	// MaxAge is the default maximum LSP remaining lifetime, seconds.
	MaxAge = 1200
)

// PDUType identifies the PDU kind carried after the common header.
// Only level-2 PDU types are named, and only the LSP has a codec;
// CENIC runs a single-area network where all adjacencies are level 2.
type PDUType uint8

const (
	// TypeP2PHello is a point-to-point IS-IS Hello.
	TypeP2PHello PDUType = 17
	// TypeLSPL2 is a level-2 link-state PDU.
	TypeLSPL2 PDUType = 20
	// TypeCSNPL2 is a level-2 complete sequence numbers PDU.
	TypeCSNPL2 PDUType = 25
	// TypePSNPL2 is a level-2 partial sequence numbers PDU.
	TypePSNPL2 PDUType = 27
)

// String names the PDU type.
func (t PDUType) String() string {
	switch t {
	case TypeP2PHello:
		return "P2P-IIH"
	case TypeLSPL2:
		return "L2-LSP"
	case TypeCSNPL2:
		return "L2-CSNP"
	case TypePSNPL2:
		return "L2-PSNP"
	default:
		return fmt.Sprintf("PDUType(%d)", uint8(t))
	}
}

// Header lengths (common header plus the LSP's fixed part).
const (
	commonHeaderLen = 8
	lspHeaderLen    = commonHeaderLen + 19
)

// Decoding errors.
var (
	ErrTruncated   = errors.New("isis: truncated PDU")
	ErrBadDiscrim  = errors.New("isis: not an IS-IS PDU (bad discriminator)")
	ErrBadVersion  = errors.New("isis: unsupported protocol version")
	ErrBadIDLength = errors.New("isis: unsupported system ID length")
	ErrBadChecksum = errors.New("isis: LSP checksum mismatch")
	ErrUnknownType = errors.New("isis: unknown PDU type")
)

// LSPID names an LSP: originating system ID, pseudonode number, and
// fragment number.
type LSPID struct {
	System     topo.SystemID
	Pseudonode uint8
	Fragment   uint8
}

// String renders the conventional "xxxx.xxxx.xxxx.pn-fr" form.
func (id LSPID) String() string {
	return fmt.Sprintf("%s.%02x-%02x", id.System, id.Pseudonode, id.Fragment)
}

func (id LSPID) appendTo(b []byte) []byte {
	b = append(b, id.System[:]...)
	return append(b, id.Pseudonode, id.Fragment)
}

func lspIDFromBytes(b []byte) LSPID {
	var id LSPID
	copy(id.System[:], b[:6])
	id.Pseudonode = b[6]
	id.Fragment = b[7]
	return id
}

// PeekType validates the common header and returns the PDU type
// without decoding the body.
func PeekType(data []byte) (PDUType, error) {
	if len(data) < commonHeaderLen {
		return 0, ErrTruncated
	}
	if data[0] != IRPD {
		return 0, ErrBadDiscrim
	}
	if data[2] != ProtocolVersion || data[5] != ProtocolVersion {
		return 0, ErrBadVersion
	}
	if data[3] != 0 && data[3] != SystemIDLen {
		return 0, ErrBadIDLength
	}
	return PDUType(data[4] & 0x1f), nil
}

// appendCommonHeader writes the 8-byte common header.
func appendCommonHeader(b []byte, typ PDUType, headerLen int) []byte {
	return append(b,
		IRPD,
		byte(headerLen),
		ProtocolVersion,
		0, // ID length: 0 means 6
		byte(typ),
		ProtocolVersion,
		0, // reserved
		0, // max area addresses: 0 means 3
	)
}

func putUint16(b []byte, off int, v uint16) { binary.BigEndian.PutUint16(b[off:], v) }
