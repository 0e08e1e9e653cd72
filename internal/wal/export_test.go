package wal

// DirBytes reads every file in a directory, by name, for the tests outside
// the package.
var DirBytes = dirBytes
