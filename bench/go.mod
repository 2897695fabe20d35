module saferatt/bench

go 1.22

require saferatt v0.0.0

replace saferatt => ../
