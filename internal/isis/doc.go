// Package isis implements the subset of the IS-IS link-state routing
// protocol (ISO 10589 with the RFC 1195 / RFC 5305 IP extensions) a
// passive listener needs to reproduce the paper's measurement
// apparatus: binary encoding and decoding of LSPs; the TLVs listed in
// Table 1 of the paper (Area Addresses, Extended IS Reachability, IP
// Interface Address, Extended IP Reachability, and Dynamic Hostname);
// and the ISO 8473 Fletcher checksum. Ordering successive issues of an
// LSP is the listener's business.
//
// Encoding follows the gopacket convention: the LSP offers
// AppendEncode (serialize to wire bytes) and DecodeFromBytes; PeekType
// reads the PDU type off the common header, so a caller names a hello,
// CSNP or PSNP without parsing it: the package forms no adjacency and
// takes part in no database exchange.
package isis
