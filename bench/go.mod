module tell/bench

go 1.22

require tell v0.0.0

replace tell => ../
