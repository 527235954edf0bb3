package history

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRecordCodec mutates encoded records: any input must either fail
// cleanly or decode into a record that re-encodes to the same bytes it
// was decoded from (the codec is canonical).
func FuzzRecordCodec(f *testing.F) {
	for _, r := range seedRecords() {
		f.Add(appendRecord(nil, r))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &reader{b: data}
		r, ok := decodeRecord(d)
		if !ok {
			if d.err == nil {
				t.Fatal("decode failed without an error")
			}
			return
		}
		re := appendRecord(nil, r)
		if !bytes.Equal(re, data[:d.off]) {
			t.Fatalf("re-encode differs from input:\n in  %x\n out %x", data[:d.off], re)
		}
	})
}

// FuzzSegmentReader mutates whole segment images (sealed and unsealed):
// the reader must never panic, and whatever decodes must round-trip
// through encode/decode unchanged.
func FuzzSegmentReader(f *testing.F) {
	corpus := newSegment(1)
	corpus.vantages = []string{"amsix", "seattle"}
	for _, r := range seedRecords() {
		corpus.append(r)
	}
	corpus.sealed = true
	img := corpus.encode()
	f.Add(append([]byte(nil), img...))
	f.Add(append([]byte(nil), img[:segHeaderLen+len(corpus.buf)]...)) // unsealed image
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := decodeSegment(data)
		if err != nil {
			return
		}
		// decodeSegment validates the whole record region up front, so a
		// segment that decoded must yield exactly count records.
		records, err := seg.records()
		if err != nil {
			t.Fatalf("decoded segment has undecodable records: %v", err)
		}
		if seg.count != len(records) {
			t.Fatalf("count %d != records %d", seg.count, len(records))
		}
	})
}

// FuzzReadRecords hammers the plain record-stream reader (the collector
// dump format) with arbitrary bytes: it must never panic, and a stream
// it accepts must re-encode to exactly the input.
func FuzzReadRecords(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteRecords(&buf, seedRecords()); err != nil {
		f.Fatal(err)
	}
	seed := buf.Bytes()
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0x56, 0x48})
	f.Add(seed[:len(seed)-5]) // truncated mid-record
	f.Add([]byte{0x56})       // half a magic
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/2] ^= 0xFF // one corrupted byte mid-stream
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := ReadRecords(bytes.NewReader(data))
		if err != nil {
			if !strings.Contains(err.Error(), "offset ") {
				t.Fatalf("error without a byte offset: %v", err)
			}
			return
		}
		var out bytes.Buffer
		if err := WriteRecords(&out, records); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("re-encode differs from input:\n in  %x\n out %x", data, out.Bytes())
		}
	})
}
