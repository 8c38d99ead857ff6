#include "common/flags.h"

namespace dgf {

bool ParseFlag(std::string_view arg, std::string_view name,
               std::string* value) {
  if (arg.substr(0, name.size()) != name) return false;
  const std::string_view rest = arg.substr(name.size());
  if (rest.empty()) {
    value->clear();
    return true;
  }
  if (rest.front() != '=') return false;
  value->assign(rest.substr(1));
  return true;
}

}  // namespace dgf
