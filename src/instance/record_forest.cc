#include "instance/record_forest.h"

namespace dynamite {

const Value& RecordNode::Prim(const std::string& attr) const {
  static const Value kNull;
  for (const auto& [name, value] : prims) {
    if (name == attr) return value;
  }
  return kNull;
}

const std::vector<RecordNode>& RecordNode::Children(const std::string& attr) const {
  static const std::vector<RecordNode> kEmpty;
  for (const auto& [name, kids] : children) {
    if (name == attr) return kids;
  }
  return kEmpty;
}

SchemaLayout::SchemaLayout(const Schema& schema) {
  const std::vector<std::string>& names = schema.RecordNames();
  records_.resize(names.size());
  for (size_t i = 0; i < names.size(); ++i) by_name_.emplace(names[i], &records_[i]);
  for (size_t i = 0; i < names.size(); ++i) {
    RecordLayout& rl = records_[i];
    rl.type = &names[i];
    rl.index = i;
    rl.nested = schema.IsNestedRecord(names[i]);
    const std::vector<std::string>& attrs = schema.AttrsOf(names[i]);
    rl.attrs.resize(attrs.size());
    size_t num_groups = 0;
    for (size_t a = 0; a < attrs.size(); ++a) {
      AttrLayout& attr = rl.attrs[a];
      attr.name = &attrs[a];
      if (schema.IsRecord(attrs[a])) {
        attr.record = by_name_.at(attrs[a]);
        attr.slot = num_groups++;
      } else {
        attr.prim = schema.PrimitiveOf(attrs[a]);
        attr.slot = rl.num_prims++;
      }
    }
    for (const AttrLayout& attr : rl.attrs) {
      if (attr.record != nullptr) rl.groups.push_back(&attr);
    }
  }
}

const RecordLayout* SchemaLayout::Find(const std::string& type) const {
  auto it = by_name_.find(type);
  return it == by_name_.end() ? nullptr : it->second;
}

std::vector<const RecordNode*> RecordForest::RootsOfType(const std::string& type) const {
  std::vector<const RecordNode*> out;
  for (const RecordNode& r : roots) {
    if (r.type == type) out.push_back(&r);
  }
  return out;
}

namespace {
size_t CountRecords(const RecordNode& node) {
  size_t n = 1;
  for (const auto& [attr, kids] : node.children) {
    for (const RecordNode& k : kids) n += CountRecords(k);
  }
  return n;
}

/// One validation walk. Each record is checked against its layout; a
/// child's layout is its attribute's, so only roots (and groups under a
/// foreign attribute) look a type up by name.
struct Validator {
  const SchemaLayout& layout;
  /// A group the fact emitter would drop (a second group under one
  /// attribute, or a group under a record type that is not one of the
  /// node's attributes) is reported only after the rest of the forest has
  /// passed, so every other defect gets the same message whether or not the
  /// forest also has such a group.
  Status dropped_group;

  Status Node(const RecordNode& node, const RecordLayout& rl) {
    RecordReader reader(node);
    for (const AttrLayout& attr : rl.attrs) {
      if (attr.record != nullptr) continue;
      const Value& v = reader.Prim(attr);
      if (v.is_null()) {
        return Status::InvalidArgument("record " + node.type + " missing attribute " +
                                       *attr.name);
      }
      if (!ValueMatchesType(v, attr.prim)) {
        return Status::TypeError("record " + node.type + " attribute " + *attr.name +
                                 " has value " + v.ToString() + " incompatible with " +
                                 PrimitiveTypeToString(attr.prim));
      }
    }
    for (size_t g = 0; g < node.children.size(); ++g) {
      const auto& [name, kids] = node.children[g];
      const RecordLayout* child = OwnGroup(rl, name);
      if (child == nullptr) {
        child = layout.Find(name);
        if (child == nullptr) {
          return Status::InvalidArgument("record " + node.type + " has children under " +
                                         name + " which is not a record type");
        }
        DropGroup("record " + node.type + " has children under " + name +
                  " which is not one of its attributes");
      } else if (EarlierGroup(node, g)) {
        DropGroup("record " + node.type + " has a second child group under " + name);
      }
      for (const RecordNode& k : kids) {
        if (k.type != *child->type) {
          return Status::InvalidArgument("child of type " + k.type +
                                         " stored under attribute " + name);
        }
        DYNAMITE_RETURN_NOT_OK(Node(k, *child));
      }
    }
    return Status::OK();
  }

  /// Layout of the node's record-typed attribute `name`; null when `name`
  /// is not one of them.
  static const RecordLayout* OwnGroup(const RecordLayout& rl, const std::string& name) {
    for (const AttrLayout* attr : rl.groups) {
      if (*attr->name == name) return attr->record;
    }
    return nullptr;
  }

  static bool EarlierGroup(const RecordNode& node, size_t g) {
    for (size_t h = 0; h < g; ++h) {
      if (node.children[h].first == node.children[g].first) return true;
    }
    return false;
  }

  void DropGroup(std::string message) {
    if (dropped_group.ok()) dropped_group = Status::InvalidArgument(std::move(message));
  }
};
}  // namespace

size_t RecordForest::TotalRecords() const {
  size_t n = 0;
  for (const RecordNode& r : roots) n += CountRecords(r);
  return n;
}

Status ValidateForest(const RecordForest& forest, const Schema& schema) {
  return ValidateForest(forest, SchemaLayout(schema));
}

Status ValidateForest(const RecordForest& forest, const SchemaLayout& layout) {
  Validator validator{layout, Status::OK()};
  for (const RecordNode& r : forest.roots) {
    const RecordLayout* rl = layout.Find(r.type);
    if (rl == nullptr) {
      return Status::InvalidArgument("unknown record type in instance: " + r.type);
    }
    if (rl->nested) {
      return Status::InvalidArgument("nested record type " + r.type +
                                     " cannot appear at the top level");
    }
    DYNAMITE_RETURN_NOT_OK(validator.Node(r, *rl));
  }
  return validator.dropped_group;
}

}  // namespace dynamite
