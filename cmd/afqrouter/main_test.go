package main

import (
	"net"
	"reflect"
	"testing"

	"authorityflow/internal/server"
)

func TestSplitURLs(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{" , ,", nil},
		{"http://a:1", []string{"http://a:1"}},
		{"http://a:1,http://b:2", []string{"http://a:1", "http://b:2"}},
		{" http://a:1 , http://b:2 ,", []string{"http://a:1", "http://b:2"}},
	}
	for _, tc := range cases {
		if got := splitURLs(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitURLs(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestListenBanner pins the startup line spawning harnesses grep for
// (with -addr :0 it carries the kernel-assigned port).
func TestListenBanner(t *testing.T) {
	addr := &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 8940}
	if got, want := server.ListenBanner(name, addr), "afqrouter: listening on 127.0.0.1:8940"; got != want {
		t.Errorf("banner = %q, want %q", got, want)
	}
}
