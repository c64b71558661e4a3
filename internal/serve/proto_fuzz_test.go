package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// countingReader counts the bytes a decoder consumed.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

func frameBytes(t testing.TB, payload any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := EncodeFrame(&b, payload); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// compactJSON canonicalizes a raw JSON body for comparison: the
// encoder compacts RawMessage bodies and writes an absent one as null.
func compactJSON(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	if raw == nil {
		return "null"
	}
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		t.Fatalf("decoded body is not valid JSON: %v", err)
	}
	return b.String()
}

func sameRequest(t *testing.T, a, b binRequest) bool {
	t.Helper()
	return a.ID == b.ID && a.Method == b.Method && a.DeadlineMs == b.DeadlineMs &&
		compactJSON(t, a.Body) == compactJSON(t, b.Body)
}

// FuzzDecodeFrame drives the one frame decoder every binary-protocol
// byte reaches the server through (readFrame is DecodeFrame under a
// read deadline). Three properties:
//   - arbitrary bytes never panic;
//   - a length prefix of 0 or above maxFrameBytes is rejected from the
//     header alone: nothing past the 4-byte header is consumed and no
//     payload-sized buffer is allocated;
//   - EncodeFrame → DecodeFrame round-trips a binRequest, both the one
//     the input decodes to (when it does) and one built from the input.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(frameBytes(f, binRequest{ID: 7, Method: "mintc", Body: json.RawMessage(`{"circuit":"x"}`), DeadlineMs: 250}))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, '{', '}'})
	f.Add([]byte{0x04, 0x00, 0x00, 0x01, '{'})
	f.Add([]byte{0, 0, 0, 2, '{', '}'})
	f.Add([]byte{0, 0, 0, 5, 'h', 'e', 'l', 'l', 'o'})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		cr := &countingReader{r: bytes.NewReader(data)}
		badLen := false
		if len(data) >= 4 {
			n := binary.BigEndian.Uint32(data)
			badLen = n == 0 || n > maxFrameBytes
		}
		var req binRequest
		var before, after runtime.MemStats
		if badLen {
			runtime.ReadMemStats(&before)
		}
		err := DecodeFrame(cr, &req)
		if badLen {
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("length %d accepted", binary.BigEndian.Uint32(data))
			}
			if cr.n != 4 {
				t.Fatalf("rejected header, but %d bytes consumed", cr.n)
			}
			// A rejected length is 0 or above the 64 MiB cap, so a
			// payload buffer would show as tens of MiB; the 1 MiB bound
			// leaves room for whatever else the process allocates.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("rejected header, but %d bytes allocated", grew)
			}
		}
		if err == nil {
			var back binRequest
			if err := DecodeFrame(bytes.NewReader(frameBytes(t, req)), &back); err != nil {
				t.Fatalf("re-encoded frame does not decode: %v", err)
			}
			if !sameRequest(t, req, back) {
				t.Fatalf("round trip changed the request: %+v -> %+v", req, back)
			}
		}

		built := binRequest{
			ID:         int64(len(data)) - 3,
			Method:     strings.ToValidUTF8(string(data), "?"),
			DeadlineMs: int64(cr.n),
		}
		if json.Valid(data) {
			built.Body = json.RawMessage(data)
		}
		var got binRequest
		if err := DecodeFrame(bytes.NewReader(frameBytes(t, built)), &got); err != nil {
			t.Fatalf("encoded request does not decode: %v", err)
		}
		if !sameRequest(t, built, got) {
			t.Fatalf("round trip changed the request: %+v -> %+v", built, got)
		}
	})
}

// TestDecodeFrameGrowsWithPayload: a header that declares a 60 MiB
// payload and then ends must fail without allocating the declared
// size, since the payload buffer grows only as bytes arrive; a partial
// payload reports io.ErrUnexpectedEOF, and a frame several times the
// first buffer, read in short pieces, still decodes intact.
func TestDecodeFrameGrowsWithPayload(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 60<<20)
	var req binRequest
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := DecodeFrame(bytes.NewReader(hdr[:]), &req)
	runtime.ReadMemStats(&after)
	if err != io.EOF {
		t.Fatalf("header then EOF: err = %v, want io.EOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Fatalf("header declaring 60 MiB then EOF allocated %d bytes, want < 64 KiB", grew)
	}

	partial := append(hdr[:], make([]byte, 3*frameChunkBytes)...)
	if err := DecodeFrame(bytes.NewReader(partial), &req); err != io.ErrUnexpectedEOF {
		t.Fatalf("partial payload: err = %v, want io.ErrUnexpectedEOF", err)
	}

	big := binRequest{ID: 9, Method: strings.Repeat("m", 5*frameChunkBytes+17)}
	var got binRequest
	if err := DecodeFrame(iotest.HalfReader(bytes.NewReader(frameBytes(t, big))), &got); err != nil {
		t.Fatal(err)
	}
	if !sameRequest(t, big, got) {
		t.Fatalf("large frame changed on decode: %d-byte method -> %d", len(big.Method), len(got.Method))
	}
}
