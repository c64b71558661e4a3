package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"mintc/internal/faultinject"
)

// The binary protocol: a client opens the connection with the 4-byte
// magic "SMO\x01"; everything after is length-prefixed frames both
// ways. One frame is
//
//	uint32 big-endian payload length | payload (JSON)
//
// A request payload is {"id": n, "method": "mintc", "body": {...},
// "deadline_ms": m}; the method names and bodies are exactly the
// HTTP/JSON ones (POST /v1/<method>). A unary method answers with one
// frame {"id": n, "body": ...} or {"id": n, "error": ..., "status": s,
// "retry_after_ms": r}; a streaming method answers with one
// {"id": n, "body": <record>} frame per record and ends with
// {"id": n, "done": true} (or an error frame — possibly mid-stream,
// e.g. the typed drain error). Requests on one connection are handled
// sequentially in arrival order; clients wanting concurrency open
// connections (cheap: admission is per-request, not per-connection).
//
// The frame cap exists so one hostile length prefix cannot make the
// server allocate gigabytes.

// protoMagic is the sniffed preamble selecting the binary protocol. No
// HTTP request can start with these bytes (methods are ASCII letters,
// 0x01 is not).
var protoMagic = [4]byte{'S', 'M', 'O', 0x01}

const (
	maxFrameBytes = 64 << 20
	// frameChunkBytes is DecodeFrame's first payload buffer; it grows
	// by doubling only as bytes arrive.
	frameChunkBytes = 32 << 10
	// sniffTimeout bounds how long a fresh connection may sit silent
	// before it must reveal its protocol.
	sniffTimeout = 10 * time.Second
	// binIdleTimeout closes binary connections with no next request.
	binIdleTimeout = 5 * time.Minute
)

// sniffConn is a net.Conn whose first bytes were peeked through a
// bufio.Reader; reads go through the reader so nothing peeked is lost.
type sniffConn struct {
	net.Conn
	r *bufio.Reader
}

func (c *sniffConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// sniff peeks the protocol preamble off a fresh connection. isBinary
// reports the SMO magic (already consumed from the stream when true).
func sniff(c net.Conn) (wrapped net.Conn, isBinary bool, err error) {
	br := bufio.NewReader(c)
	_ = c.SetReadDeadline(time.Now().Add(sniffTimeout))
	peek, err := br.Peek(len(protoMagic))
	_ = c.SetReadDeadline(time.Time{})
	if err != nil {
		return nil, false, err
	}
	sc := &sniffConn{Conn: c, r: br}
	if [4]byte(peek) == protoMagic {
		_, _ = br.Discard(len(protoMagic))
		return sc, true, nil
	}
	return sc, false, nil
}

// chanListener adapts the sniffing accept loop to http.Server: HTTP
// connections are delivered into a channel the http.Server accepts
// from.
type chanListener struct {
	addr   net.Addr
	conns  chan net.Conn
	closed chan struct{}
}

func newChanListener(addr net.Addr) *chanListener {
	return &chanListener{addr: addr, conns: make(chan net.Conn), closed: make(chan struct{})}
}

// Deliver hands one connection to the HTTP server; false means the
// listener already closed and the caller keeps ownership.
func (l *chanListener) Deliver(c net.Conn) bool {
	select {
	case l.conns <- c:
		return true
	case <-l.closed:
		return false
	}
}

func (l *chanListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *chanListener) Close() error {
	select {
	case <-l.closed:
	default:
		close(l.closed)
	}
	return nil
}

func (l *chanListener) Addr() net.Addr { return l.addr }

// binRequest is one binary-protocol request frame.
type binRequest struct {
	ID         int64           `json:"id"`
	Method     string          `json:"method"`
	Body       json.RawMessage `json:"body"`
	DeadlineMs int64           `json:"deadline_ms,omitempty"`
}

// binResponse is one binary-protocol response frame.
type binResponse struct {
	ID           int64           `json:"id"`
	Body         json.RawMessage `json:"body,omitempty"`
	Done         bool            `json:"done,omitempty"`
	Error        string          `json:"error,omitempty"`
	Status       int             `json:"status,omitempty"`
	RetryAfterMs int64           `json:"retry_after_ms,omitempty"`
	Draining     bool            `json:"draining,omitempty"`
}

// serveBinary runs one sniffed binary connection to completion.
func (s *Server) serveBinary(c net.Conn) {
	defer c.Close()
	w := bufio.NewWriter(c)
	for {
		req, err := s.readFrame(c)
		if err != nil {
			if s.Draining() {
				// Drain woke this idle connection, or found it between
				// requests: say why it ends, then end it.
				(&binResponder{s: s, c: c, w: w}).fail(http.StatusServiceUnavailable, ErrDraining)
				lingerClose(c)
			}
			return // EOF, timeout, oversized or malformed frame: drop the conn
		}
		s.counters.binFrames.Add(1)
		out := &binResponder{s: s, c: c, w: w, req: req}
		s.serveRequest(context.Background(), req.Method, req.DeadlineMs, out)
		if out.draining {
			lingerClose(c)
			return
		}
		if out.broken {
			return
		}
	}
}

// drainLinger bounds how long a connection closed by drain keeps
// reading what the client still sends.
const drainLinger = time.Second

// lingerClose ends a connection the server gives up while the client
// may be mid-request: it half-closes the write side, so the client reads
// the final frame and then EOF, and discards what arrives for up to
// drainLinger before the caller closes. Closing with unread input would
// make the kernel answer the client's next write with a reset, failing
// that write with a broken pipe and possibly dropping the final frame.
func lingerClose(c net.Conn) {
	if sc, ok := c.(*sniffConn); ok {
		c = sc.Conn
	}
	cw, ok := c.(interface{ CloseWrite() error })
	if !ok || cw.CloseWrite() != nil {
		return
	}
	_ = c.SetReadDeadline(time.Now().Add(drainLinger))
	_, _ = io.Copy(io.Discard, c)
}

// binResponder answers one binary-protocol request with frames tagged
// by the request's id. A draining error ends the connection once the
// request is done: serveBinary closes it with lingerClose, outside the
// drain's in-flight count.
type binResponder struct {
	s        *Server
	c        net.Conn
	w        *bufio.Writer
	req      binRequest
	broken   bool
	draining bool
}

// write writes one response frame under the slow-client write
// deadline. A failed write marks the connection broken, which is all
// the callers that ignore its error need: serveBinary then drops it.
func (b *binResponder) write(resp binResponse) error {
	err := faultinject.Fire("serve.write")
	if err == nil {
		resp.ID = b.req.ID
		b.s.armWrite(b.c.SetWriteDeadline)
		if err = EncodeFrame(b.w, resp); err == nil {
			err = b.w.Flush()
		}
		_ = b.c.SetWriteDeadline(time.Time{})
	}
	b.broken = b.broken || err != nil
	return err
}

func (b *binResponder) body() ([]byte, error) { return b.req.Body, nil }

func (b *binResponder) result(body []byte) { _ = b.write(binResponse{Body: body}) }

func (b *binResponder) open() {}

func (b *binResponder) record(body []byte) error {
	if err := faultinject.Fire("serve.stream.chunk"); err != nil {
		return err
	}
	return b.write(binResponse{Body: body})
}

func (b *binResponder) close() { _ = b.write(binResponse{Done: true}) }

func (b *binResponder) setWriteDeadline(t time.Time) error { return b.c.SetWriteDeadline(t) }

func (b *binResponder) fail(status int, err error) {
	resp := binResponse{Error: err.Error(), Status: status, Draining: errors.Is(err, ErrDraining)}
	var se *statusError
	if errors.As(err, &se) && se.retry > 0 {
		resp.RetryAfterMs = se.retry.Milliseconds() + 1
	}
	b.draining = resp.Draining
	_ = b.write(resp)
}

// readFrame reads one request frame under the idle deadline. The
// connection is idle while it waits, so drain wakes it: without that an
// idle client would hold its connection and goroutine until
// binIdleTimeout. A wake-up registered after drain began fires at once.
// One that has started is waited for, so it cannot cut a later read
// deadline (lingerClose's).
func (s *Server) readFrame(c net.Conn) (binRequest, error) {
	var req binRequest
	_ = c.SetReadDeadline(time.Now().Add(binIdleTimeout))
	woke := make(chan struct{})
	stop := context.AfterFunc(s.drainCtx, func() {
		_ = c.SetReadDeadline(time.Now())
		close(woke)
	})
	err := DecodeFrame(c, &req)
	if !stop() {
		<-woke
	}
	_ = c.SetReadDeadline(time.Time{})
	return req, err
}

// WriteBinaryMagic writes the protocol preamble a binary client must
// send first; exported for cmd/smoload and tests.
func WriteBinaryMagic(w io.Writer) error {
	_, err := w.Write(protoMagic[:])
	return err
}

// EncodeFrame length-prefixes one payload — the one frame encoder,
// used by the server for responses and by clients (cmd/smoload, tests)
// for requests. A payload above the frame cap is refused unwritten.
func EncodeFrame(w io.Writer, payload any) error {
	b, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	if len(b) > maxFrameBytes {
		return fmt.Errorf("serve: frame %d bytes exceeds cap", len(b))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// DecodeFrame reads one length-prefixed payload into v — the one frame
// decoder, used by the server for requests and by clients for
// responses. A length of 0 or above the frame cap is rejected from the
// header alone, before the payload buffer is allocated. An accepted
// length is only a claim: the buffer starts at frameChunkBytes and
// doubles as payload bytes arrive, so a peer that declares a large
// frame and stalls pins no more memory than it has sent. Errors follow
// io.ReadFull: io.EOF when no payload byte arrived, io.ErrUnexpectedEOF
// after a partial one.
func DecodeFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size == 0 || size > maxFrameBytes {
		return fmt.Errorf("serve: frame length %d out of range (0, %d]", size, maxFrameBytes)
	}
	n := int(size)
	buf := make([]byte, min(n, frameChunkBytes))
	for got := 0; ; {
		if _, err := io.ReadFull(r, buf[got:]); err != nil {
			if err == io.EOF && got > 0 {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		if got = len(buf); got == n {
			break
		}
		buf = append(buf, make([]byte, min(got, n-got))...)
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("serve: malformed frame: %w", err)
	}
	return nil
}
