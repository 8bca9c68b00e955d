#include "common/codec.h"

#include <cstdio>
#include <cstring>

namespace panic::codec {

std::string write(double v) {
  char buf[32];
  for (int digits = 6; digits <= 17; ++digits) {
    std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
    double back = 0.0;
    std::from_chars(buf, buf + std::strlen(buf), back);
    if (back == v) break;  // 17 digits always read back (NaN never does)
  }
  return buf;
}

}  // namespace panic::codec
