module cfsf/bench

go 1.22

require cfsf v0.0.0

replace cfsf => ../
