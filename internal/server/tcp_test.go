package server

import (
	"bytes"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte("x"), 100000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for _, want := range payloads {
		got, err := ReadFrame(&buf, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame round trip: got %d bytes, want %d", len(got), len(want))
		}
		scratch = got
	}
	if _, err := ReadFrame(&buf, nil); err == nil || err.Error() != "EOF" {
		if _, err2 := ReadFrame(&buf, nil); err2 == nil {
			t.Error("EOF not reported at stream end")
		}
	}

	// Oversized frames are rejected on both sides.
	if err := WriteFrame(&buf, make([]byte, MaxFrame+1)); err == nil {
		t.Error("oversized write accepted")
	}
	var hdr bytes.Buffer
	hdr.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(&hdr, nil); err == nil {
		t.Error("oversized header accepted")
	}
	// A truncated frame is an error, not EOF.
	var trunc bytes.Buffer
	WriteFrame(&trunc, []byte("full payload"))
	half := trunc.Bytes()[:trunc.Len()-4]
	if _, err := ReadFrame(bytes.NewReader(half), nil); err == nil {
		t.Error("truncated frame read succeeded")
	}
}
