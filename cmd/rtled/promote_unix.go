//go:build unix

package main

import (
	"os"
	"syscall"
)

// promoteSignal promotes a replica, as POST /promote on the admin port does.
var promoteSignal os.Signal = syscall.SIGUSR1

const promoteHint = "SIGUSR1 or POST /promote"
