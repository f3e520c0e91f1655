package ledger

import (
	"encoding/binary"
	"hash/crc32"
)

// On-disk frame layout (pinned by ledger_wire_test.go):
//
//	offset  size  field
//	0       4     payload length, uint32 little-endian
//	4       4     CRC32 (IEEE) of the payload
//	8       n     payload = 1 record-type byte + JSON body
//
// The CRC covers the whole payload including the type byte, so a
// bit-flip in either is detected. A record is the unit of atomicity:
// replay applies whole valid frames and stops at the first frame that
// is short, fails its CRC, or carries an absurd length — the torn-tail
// truncation rule. Nothing in a frame is positional beyond the first
// header, so a record that both a legacy snapshot and the WAL hold
// replays idempotently.
const (
	frameOverhead = 8
	// maxFramePayload bounds a single record. Real records are a few
	// hundred bytes (verdicts) to a few hundred KB (answers of a large
	// query); anything larger in the length field is garbage from a
	// torn write, not data.
	maxFramePayload = 16 << 20
)

// Record-type bytes, the first byte of every frame payload.
const (
	frameHeader    byte = 'H' // file header: version, kind, engine seed
	frameStatement byte = 'S' // canonical statement that reached execution
	frameVerdict   byte = 'V' // one resolved task verdict
	frameAnswer    byte = 'A' // one completed query's full answer
)

// appendFrame appends one framed record to dst and returns the
// extended slice.
func appendFrame(dst []byte, typ byte, body []byte) []byte {
	payload := len(body) + 1
	var hdr [frameOverhead]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(payload))
	crc := crc32.NewIEEE()
	crc.Write([]byte{typ})
	crc.Write(body)
	binary.LittleEndian.PutUint32(hdr[4:8], crc.Sum32())
	dst = append(dst, hdr[:]...)
	dst = append(dst, typ)
	dst = append(dst, body...)
	return dst
}

// scanFrames walks buf frame by frame, invoking fn for each valid one,
// and returns the byte offset just past the last valid frame — the
// truncation point for a torn tail. A short frame, CRC mismatch or
// implausible length ends the scan (they are indistinguishable from a
// write cut mid-frame); an error from fn aborts it and is returned
// with the offset of the frame that caused it.
func scanFrames(buf []byte, fn func(typ byte, body []byte) error) (int64, error) {
	off := 0
	for {
		if len(buf)-off < frameOverhead {
			return int64(off), nil
		}
		payload := int(binary.LittleEndian.Uint32(buf[off : off+4]))
		if payload < 1 || payload > maxFramePayload {
			return int64(off), nil
		}
		want := binary.LittleEndian.Uint32(buf[off+4 : off+8])
		start := off + frameOverhead
		if len(buf)-start < payload {
			return int64(off), nil
		}
		p := buf[start : start+payload]
		if crc32.ChecksumIEEE(p) != want {
			return int64(off), nil
		}
		if err := fn(p[0], p[1:]); err != nil {
			return int64(off), err
		}
		off = start + payload
	}
}
