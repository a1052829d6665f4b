//go:build !unix

package main

import "os"

// promoteSignal is nil where there is no SIGUSR1: POST /promote on the admin
// port is the only way to promote a replica.
var promoteSignal os.Signal

const promoteHint = "POST /promote"
