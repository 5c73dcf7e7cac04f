package main

import (
	"net"
	"testing"

	"authorityflow/internal/server"
)

// TestListenBanner pins the startup line spawning harnesses grep for:
// they pass -addr :0 and parse this exact prefix from stderr to learn
// the kernel-assigned port.
func TestListenBanner(t *testing.T) {
	addr := &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 8941}
	if got, want := server.ListenBanner(name, addr), "afqserver: listening on 127.0.0.1:8941"; got != want {
		t.Errorf("banner = %q, want %q", got, want)
	}
}
