package station

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
)

// The wire ingest: CTP2 frames over TCP.
//
// TCP carries length-prefixed frames (uint16 LE length, then the frame
// bytes) and answers each with one status byte — ACK for a frame that
// decoded, passed CRC, and was logged and applied, NAK otherwise. The
// per-frame ack is what makes a stop-and-wait ARQ client (Push) work: a
// frame the channel or a proxy mangled is retransmitted instead of
// silently lost.

const (
	// AckByte and NakByte are the TCP per-frame replies.
	AckByte = 0x06 // ASCII ACK
	NakByte = 0x15 // ASCII NAK

	// maxWireFrame bounds a length prefix; the largest legal CTP2 frame
	// (85 records) is ~1 KB, so anything larger is protocol confusion.
	maxWireFrame = 2048
)

// ServeTCP accepts framed-uplink connections until the listener closes.
// Each connection is served on its own goroutine with one frame buffer;
// their frames meet only at the receive window's lock.
func (s *Server) ServeTCP(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.closed.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.m.tcpConns.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	var hdr [2]byte
	buf := make([]byte, maxWireFrame)
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return // clean EOF or a dead peer; either way the stream is over
		}
		n := int(binary.LittleEndian.Uint16(hdr[:]))
		if n == 0 || n > maxWireFrame {
			return // unframed garbage; no way to resynchronize a stream
		}
		if _, err := io.ReadFull(conn, buf[:n]); err != nil {
			return
		}
		status := byte(AckByte)
		if err := s.IngestFrame(buf[:n]); err != nil {
			if !errors.Is(err, ErrRejected) {
				return // closing down; drop the connection, client retries elsewhere
			}
			status = NakByte
			s.m.tcpNaks.Add(1)
		} else {
			s.m.tcpAcks.Add(1)
		}
		if _, err := conn.Write([]byte{status}); err != nil {
			return
		}
	}
}
